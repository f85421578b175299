(* Clock, sample buffers, allocation counters and the result record
   shared by every workload.

   Timing uses bechamel's monotonic nanosecond clock (never
   [Unix.gettimeofday], whose 1 us steps are a visible share of a
   4 KiB read).  Latencies go into preallocated float arrays: beyond
   the payloads and the op stream's requests, the untraced timed loop
   allocates nothing of its own. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type samples = { mutable len : int; data : float array }

let samples capacity = { len = 0; data = Array.make (max 1 capacity) 0. }

(* A full buffer keeps its first [capacity] samples; capacities are sized
   well above the op rate of the fastest workload. *)
let push s v =
  if s.len < Array.length s.data then begin
    Array.unsafe_set s.data s.len v;
    s.len <- s.len + 1
  end

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile over a sorted array (the rule Vrunner uses). *)
let pct a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  pct a 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* All words allocated so far, counting every byte once: minor plus
   major minus what the minor heap promoted ([minor_words] alone misses
   blocks allocated straight into the major heap, such as 64 KiB
   payloads).  Counts the calling domain and every joined one.
   ([Stdlib.Gc]: the protocol's [Gc] module shadows it.) *)
let alloc_words () =
  let q = Stdlib.Gc.quick_stat () in
  Stdlib.Gc.(q.minor_words +. q.major_words -. q.promoted_words)

type gc_counts = { minor : int; major : int; major_words : float }

let gc_counts () =
  let q = Stdlib.Gc.quick_stat () in
  {
    minor = q.Stdlib.Gc.minor_collections;
    major = q.Stdlib.Gc.major_collections;
    major_words = q.Stdlib.Gc.major_words;
  }

let heap_peak_mb () =
  float_of_int ((Stdlib.Gc.quick_stat ()).Stdlib.Gc.top_heap_words * 8) /. 1e6

(* What one run reports: correctness, op counts, and named metrics with
   their units.  [notes] are printed with the metrics but are not part of
   the JSON result (sample counts, unbounded tails). *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : (string * float * string) list;
}

