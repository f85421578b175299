(* Span recorder for the traced run, kept entirely in the benchmark's own
   files: an op span around each [Client.write] / [Client.read] /
   [Client.collect_garbage] call, and a child span per RPC from a timing
   wrapper around the client's [Transport.t].  Spans of one op share its
   id.  Everything lives in arrays allocated up front and is written out
   once the run ends.

   The wrapper records from the calling domain only, so it is used with
   sequential [pfor] (Direct_env, and Par_env with no pfor helpers), where
   an op's child spans never overlap. *)

type op_kind = Write | Read | Collect

let op_code = function Write -> 0 | Read -> 1 | Collect -> 2
let op_names = [| "write"; "read"; "collect_garbage" |]

(* Request kinds the ledger reports separately; the rest are "other". *)
let rpc_names = [| "swap"; "add"; "read"; "gc"; "other" |]

let rpc_code = function
  | Proto.Swap _ -> 0
  | Proto.Add _ | Proto.Add_bcast _ -> 1
  | Proto.Read | Proto.Read_checked -> 2
  | Proto.Gc_old _ | Proto.Gc_recent _ -> 3
  | _ -> 4

let swap = 0
let add = 1
let read = 2

type t = {
  op_kind : int array;
  op_start : float array;
  op_end : float array;
  mutable ops : int;
  rpc_op : int array;
  rpc_kind : int array;
  rpc_bytes : int array;
  rpc_start : float array;
  rpc_end : float array;
  mutable rpcs : int;
  mutable current : int;  (* id of the open op span; -1 between ops *)
}

let create ~max_ops ~max_rpcs =
  {
    op_kind = Array.make max_ops 0;
    op_start = Array.make max_ops 0.;
    op_end = Array.make max_ops 0.;
    ops = 0;
    rpc_op = Array.make max_rpcs 0;
    rpc_kind = Array.make max_rpcs 0;
    rpc_bytes = Array.make max_rpcs 0;
    rpc_start = Array.make max_rpcs 0.;
    rpc_end = Array.make max_rpcs 0.;
    rpcs = 0;
    current = -1;
  }

(* Full once another op might not fit: a protocol GC op issues up to
   2 n RPCs per collected tid. *)
let full t =
  t.ops >= Array.length t.op_kind
  || t.rpcs + 1024 >= Array.length t.rpc_kind

(* [op t kind f] runs [f] inside an op span.  Spans stop being recorded
   once the store is full; the traced window ends there too. *)
let op t kind f =
  if full t then f ()
  else begin
    let id = t.ops in
    t.ops <- id + 1;
    t.current <- id;
    t.op_kind.(id) <- op_code kind;
    t.op_start.(id) <- Meter.now_ns ();
    Fun.protect
      ~finally:(fun () ->
        t.op_end.(id) <- Meter.now_ns ();
        t.current <- -1)
      f
  end

let record t ~kind ~bytes ~t0 ~t1 =
  if t.current >= 0 && t.rpcs < Array.length t.rpc_kind then begin
    let i = t.rpcs in
    t.rpcs <- i + 1;
    t.rpc_op.(i) <- t.current;
    t.rpc_kind.(i) <- kind;
    t.rpc_bytes.(i) <- bytes;
    t.rpc_start.(i) <- t0;
    t.rpc_end.(i) <- t1
  end

(* The timing wrapper: same transport, every call and node call timed as
   a child span of the open op, with request kind and payload bytes. *)
let wrap t (module T : Transport.S) : Transport.t =
  (module struct
    include T

    let timed req f =
      let t0 = Meter.now_ns () in
      let r = f () in
      let t1 = Meter.now_ns () in
      let bytes =
        Proto.request_bytes req
        + match r with Ok resp -> Proto.response_bytes resp | Error _ -> 0
      in
      record t ~kind:(rpc_code req) ~bytes ~t0 ~t1;
      r

    let call ?deadline ~slot ~pos req =
      timed req (fun () -> T.call ?deadline ~slot ~pos req)

    let call_node ?deadline ~node req =
      timed req (fun () -> T.call_node ?deadline ~node req)
  end : Transport.S)

(* Per-op digest: duration, the part of it the child spans cover (the
   union of their intervals), and per-kind child calls and time. *)
type op_digest = {
  d_kind : int;
  d_ns : float;
  mutable d_child_ns : float;
  d_calls : int array;
  d_call_ns : float array;
  mutable d_bytes : int;
}

let digests t =
  let nk = Array.length rpc_names in
  let ds =
    Array.init t.ops (fun id ->
        {
          d_kind = t.op_kind.(id);
          d_ns = t.op_end.(id) -. t.op_start.(id);
          d_child_ns = 0.;
          d_calls = Array.make nk 0;
          d_call_ns = Array.make nk 0.;
          d_bytes = 0;
        })
  in
  (* Children are appended in completion order; covered time is the
     union of their intervals, clipped to the parent. *)
  let covered_to = Array.make t.ops neg_infinity in
  for i = 0 to t.rpcs - 1 do
    let id = t.rpc_op.(i) in
    let d = ds.(id) in
    let from = Float.max covered_to.(id) t.op_start.(id) in
    let s = Float.max t.rpc_start.(i) from in
    let e = Float.min t.rpc_end.(i) t.op_end.(id) in
    let extra = Float.max 0. (e -. s) in
    covered_to.(id) <- Float.max covered_to.(id) e;
    let k = t.rpc_kind.(i) in
    d.d_calls.(k) <- d.d_calls.(k) + 1;
    d.d_call_ns.(k) <- d.d_call_ns.(k) +. (t.rpc_end.(i) -. t.rpc_start.(i));
    d.d_child_ns <- d.d_child_ns +. extra;
    d.d_bytes <- d.d_bytes + t.rpc_bytes.(i)
  done;
  ds

(* Tab-separated dump, one line per span: op spans first (id, "op",
   kind, start, end), then child spans (parent id, "rpc", kind, bytes,
   start, end).  Times are monotonic nanoseconds. *)
let dump t ~path ~header =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
      for id = 0 to t.ops - 1 do
        Printf.fprintf oc "%d\top\t%s\t\t%.0f\t%.0f\n" id
          op_names.(t.op_kind.(id))
          t.op_start.(id) t.op_end.(id)
      done;
      for i = 0 to t.rpcs - 1 do
        Printf.fprintf oc "%d\trpc\t%s\t%d\t%.0f\t%.0f\n" t.rpc_op.(i)
          rpc_names.(t.rpc_kind.(i))
          t.rpc_bytes.(i) t.rpc_start.(i) t.rpc_end.(i)
      done)
