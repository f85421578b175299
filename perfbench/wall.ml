(* Wall-clock workloads: one closed-loop client, one op outstanding, on
   the main domain, over Direct_env (calls run in place) or Par_env (one
   storage worker domain, mailbox handoff and deep copies both ways).

   Correctness: every write sends a freshly built payload (stored
   payloads are node-owned, so a reused buffer would rot stored data);
   returned blocks are never mutated; a model keeps each block's last
   written tag, reads are checked against it in the window, and every
   block plus every stripe's parity is verified after it. *)

type backend = Direct | Par

type spec = {
  name : string;
  backend : backend;
  block_size : int;
  blocks : int;  (** working set, in data blocks; a multiple of [k] *)
  profile : Profile.t;
}

let k = 4
let n = 6

(* Protocol GC runs every [gc_every] writes, the same cadence on every
   workload and commit, so per-op cost does not drift with run length. *)
let gc_every = 32

(* Untimed ops after the fill, before the timed window. *)
let warmup_ops = 256

(* The timed window's rate is the median of this many equal sub-windows. *)
let sub_windows = 10

let config spec = Config.make ~block_size:spec.block_size ~k ~n ()

(* --- payloads and the model ------------------------------------------ *)

(* Tag in the first 8 bytes, then a tag-seeded xorshift stream, so the
   expected contents of any block can be rebuilt from its tag. *)
let fill_payload b tag =
  Bytes.set_int64_le b 0 (Int64.of_int tag);
  let x = ref (tag lor 1) in
  for w = 1 to (Bytes.length b / 8) - 1 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    Bytes.set_int64_le b (w * 8) (Int64.of_int v)
  done

let payload size tag =
  let b = Bytes.create size in
  fill_payload b tag;
  b

let tag_of b = Int64.to_int (Bytes.get_int64_le b 0)

(* [tags.(b)]: last tag written to block [b]; -1 once a write to it
   failed (its contents are then unknown, and already counted). *)
type model = { tags : int array; mutable next_tag : int }

(* --- environments ----------------------------------------------------- *)

type env = {
  client : Client.t;
  traced_client : Spans.t -> Client.t;
      (** a second client over the same nodes, built like [make_client]
          but on the timing wrapper around its transport *)
  store : int -> Storage_node.t;  (** node stores; only while quiescent *)
  layout : Layout.t;
  close : unit -> unit;
}

let open_env spec =
  let cfg = config spec in
  let layout = Layout.create ~k ~n () in
  let locate ~slot ~pos = Layout.node_of layout ~stripe:slot ~pos in
  let code = Rs_code.create ~k ~n () in
  let traced transport sp =
    Client.of_transport ~locate cfg code (Spans.wrap sp transport)
  in
  match spec.backend with
  | Direct ->
    let e = Direct_env.create cfg in
    {
      client = Direct_env.make_client e ~id:1;
      traced_client = traced (Direct_env.transport e ~id:2);
      store = Direct_env.node_store e;
      layout;
      close = ignore;
    }
  | Par ->
    let e = Par_env.create ~workers:1 ~pfor_workers:0 ~service_time:0. cfg in
    {
      client = Par_env.make_client e ~id:1;
      traced_client = traced (Par_env.transport e ~id:2);
      store = Par_env.node_store e;
      layout;
      close = (fun () -> Par_env.shutdown e);
    }

(* --- the op loop ------------------------------------------------------ *)

type window = {
  lat_w : Meter.samples;
  lat_r : Meter.samples;
  sub_bytes : float array;
  mutable sub_ns : float;
  mutable writes : int;
  mutable reads : int;
  mutable failed : int;
}

let window ~capacity =
  {
    lat_w = Meter.samples capacity;
    lat_r = Meter.samples capacity;
    sub_bytes = Array.make sub_windows 0.;
    sub_ns = 1.;
    writes = 0;
    reads = 0;
    failed = 0;
  }

let collect_garbage ?spans client w =
  try
    match spans with
    | None -> Client.collect_garbage client
    | Some sp ->
      Spans.op sp Spans.Collect (fun () -> Client.collect_garbage client)
  with Client.Stuck _ | Client.Data_loss _ -> w.failed <- w.failed + 1

(* One op of the stream; false if it raised. *)
let one_op ?spans spec client model w (r : Profile.request) =
  let b = r.Profile.block in
  let slot = b / k and i = b mod k in
  match r.Profile.op with
  | Generator.Op_write -> (
    let tag = model.next_tag in
    model.next_tag <- tag + 1;
    let v = payload spec.block_size tag in
    let t0 = Meter.now_ns () in
    match
      match spans with
      | None -> Client.write client ~slot ~i v
      | Some sp ->
        Spans.op sp Spans.Write (fun () -> Client.write client ~slot ~i v)
    with
    | () ->
      let dt = Meter.now_ns () -. t0 in
      model.tags.(b) <- tag;
      w.writes <- w.writes + 1;
      if w.writes mod gc_every = 0 then collect_garbage ?spans client w;
      Meter.push w.lat_w dt;
      true
    | exception (Client.Stuck _ | Client.Data_loss _ | Client.Write_abandoned _)
      ->
      model.tags.(b) <- -1;
      w.failed <- w.failed + 1;
      false)
  | Generator.Op_read -> (
    let t0 = Meter.now_ns () in
    match
      match spans with
      | None -> Client.read client ~slot ~i
      | Some sp ->
        Spans.op sp Spans.Read (fun () -> Client.read client ~slot ~i)
    with
    | v ->
      let dt = Meter.now_ns () -. t0 in
      w.reads <- w.reads + 1;
      if model.tags.(b) >= 0 && tag_of v <> model.tags.(b) then
        w.failed <- w.failed + 1;
      Meter.push w.lat_r dt;
      true
    | exception (Client.Stuck _ | Client.Data_loss _) ->
      w.failed <- w.failed + 1;
      false)

(* Run the stream for [ns] nanoseconds (or [max_ops] ops, whichever ends
   first), attributing completed bytes to equal sub-windows. *)
let run_window ?spans ?(max_ops = max_int) spec client gen model w ~ns =
  w.sub_ns <- ns /. float_of_int sub_windows;
  let start = Meter.now_ns () in
  let stop = start +. ns in
  let ops = ref 0 in
  let traced_full () =
    match spans with Some sp -> Spans.full sp | None -> false
  in
  while !ops < max_ops && Meter.now_ns () < stop && not (traced_full ()) do
    let ok = one_op ?spans spec client model w (Profile.next gen) in
    incr ops;
    if ok then begin
      let idx = int_of_float ((Meter.now_ns () -. start) /. w.sub_ns) in
      let idx = max 0 (min (sub_windows - 1) idx) in
      w.sub_bytes.(idx) <- w.sub_bytes.(idx) +. float_of_int spec.block_size
    end
  done;
  Meter.now_ns () -. start

(* Median sub-window rate; a window cut short by [max_ops] or a full
   span store falls back to bytes over elapsed time. *)
let mb_per_s w ~elapsed ~ns =
  if elapsed < 0.99 *. ns then
    Meter.ratio (Array.fold_left ( +. ) 0. w.sub_bytes *. 1e3) elapsed
  else
    Meter.median
      (Array.to_list (Array.map (fun b -> b *. 1e3 /. w.sub_ns) w.sub_bytes))

(* --- set-up ----------------------------------------------------------- *)

type setup = { env : env; gen : Profile.gen; model : model }

(* Environment creation, filling every block of the working set once,
   and an untimed warm-up on the op stream. *)
let setup spec ~seed =
  let env = open_env spec in
  let model = { tags = Array.make spec.blocks 0; next_tag = 1 } in
  let scratch = window ~capacity:1 in
  for b = 0 to spec.blocks - 1 do
    ignore
      (one_op spec env.client model scratch
         { Profile.op = Generator.Op_write; block = b; size = 1 })
  done;
  let gen = Profile.generator spec.profile ~seed ~blocks:spec.blocks in
  for _ = 1 to warmup_ops do
    ignore (one_op spec env.client model scratch (Profile.next gen))
  done;
  if scratch.failed > 0 then failwith (spec.name ^ ": set-up op failed");
  { env; gen; model }

(* --- verification ----------------------------------------------------- *)

(* Every block through the client's read path (full contents). *)
let read_back spec client model =
  let bad = ref 0 in
  Array.iteri
    (fun b tag ->
      if tag >= 0 then
        match Client.read client ~slot:(b / k) ~i:(b mod k) with
        | v ->
          if not (Bytes.equal v (payload spec.block_size tag)) then incr bad
        | exception (Client.Stuck _ | Client.Data_loss _) -> incr bad)
    model.tags;
  !bad

(* Node state at quiescence: each data member holds its block's last
   written value, and each stripe's redundant members satisfy the code.
   Also returns the bytes all nodes hold (blocks plus protocol
   metadata). *)
let check_stores spec env model =
  let code = Rs_code.create ~k ~n () in
  let bad = ref 0 in
  let stripes = spec.blocks / k in
  for slot = 0 to stripes - 1 do
    let member pos = env.store (Layout.node_of env.layout ~stripe:slot ~pos) in
    let blocks =
      Array.init n (fun pos ->
          let st = member pos in
          if Storage_node.peek_opmode st ~slot <> Proto.Norm then incr bad;
          Storage_node.peek_block st ~slot)
    in
    for i = 0 to k - 1 do
      let tag = model.tags.((slot * k) + i) in
      if tag >= 0 && not (Bytes.equal blocks.(i) (payload spec.block_size tag))
      then incr bad
    done;
    if not (Rs_code.verify_stripe code blocks) then incr bad
  done;
  let held = ref 0 in
  for node = 0 to n - 1 do
    let st = env.store node in
    held :=
      !held
      + (Storage_node.slot_count st * spec.block_size)
      + Storage_node.overhead_bytes st
  done;
  (!bad, float_of_int !held)

let space_amp spec held =
  held /. float_of_int (spec.blocks * spec.block_size)

(* --- runs ---------------------------------------------------------------- *)

(* Latency buffer size: room for 60k ops per second of each kind, about
   three times the fastest workload's rate, so the buffers stay a small
   share of [heap_peak_mb]. *)
let capacity ~seconds = max 1024 (int_of_float (seconds *. 60_000.))

(* Set up [setups] times, keeping the last; returns it and every
   set-up time. *)
let repeated_setup spec ~seed ~setups =
  let rec loop i times =
    Stdlib.Gc.compact ();
    let t0 = Meter.now_ns () in
    let s = setup spec ~seed in
    let times = ((Meter.now_ns () -. t0) /. 1e9) :: times in
    if i >= setups then (s, times)
    else begin
      s.env.close ();
      loop (i + 1) times
    end
  in
  loop 1 []

(* Verify after the window (Par_env is closed first, so its stores are
   quiescent).  Returns the number of bad blocks or stripes and the
   bytes the nodes hold. *)
let verify spec s =
  match spec.backend with
  | Direct ->
    let bad = read_back spec s.env.client s.model in
    let bad2, held = check_stores spec s.env s.model in
    (bad + bad2, held)
  | Par ->
    s.env.close ();
    check_stores spec s.env s.model

let us a q = Meter.pct a q /. 1e3

(* Wall-clock tails follow the load of a shared host: a p99 moved by up
   to 2x between its busy and quiet phases, far beyond any bound.  They
   are reported beside the gated metrics, with the sample counts. *)
let latency_notes w =
  let lw = Meter.sorted w.lat_w and lr = Meter.sorted w.lat_r in
  [
    ("write_p99_us", us lw 0.99, "us");
    ("read_p99_us", us lr 0.99, "us");
    ("write_samples", float_of_int (Array.length lw), "count");
    ("read_samples", float_of_int (Array.length lr), "count");
  ]

(* The untraced run: every end-to-end metric.  The allocation count
   sees the calling domain only, which is every domain on Direct_env. *)
let run_e2e ?max_ops spec ~seed ~seconds ~setups =
  let ns = seconds *. 1e9 in
  let w = window ~capacity:(capacity ~seconds) in
  let s, times = repeated_setup spec ~seed ~setups in
  Stdlib.Gc.compact ();
  let a0 = Meter.alloc_words () in
  let elapsed = run_window ?max_ops spec s.env.client s.gen s.model w ~ns in
  let words = Meter.alloc_words () -. a0 in
  let bad, held = verify spec s in
  s.env.close ();
  let ops = w.reads + w.writes in
  let lw = Meter.sorted w.lat_w and lr = Meter.sorted w.lat_r in
  {
    Meter.correct = bad = 0 && w.failed = 0;
    attempted = ops + w.failed;
    failed = w.failed + bad;
    metrics =
      [
        ("setup_s", Meter.median times, "s");
        ("mb_per_s", mb_per_s w ~elapsed ~ns, "MB/s");
        ("write_p50_us", us lw 0.5, "us");
        ("read_p50_us", us lr 0.5, "us");
        ( "alloc_bytes_per_op",
          Meter.ratio (words *. 8.) (float_of_int ops),
          "B" );
        ("heap_peak_mb", Meter.heap_peak_mb (), "MB");
        ("space_amp", space_amp spec held, "ratio");
      ];
    notes = latency_notes w;
  }

(* Mean round trip per request kind over the traced window, in us, and
   the number of calls of each kind. *)
let rtts ds =
  let nk = Array.length Spans.rpc_names in
  let calls = Array.make nk 0 and ns = Array.make nk 0. in
  List.iter
    (fun d ->
      for k = 0 to nk - 1 do
        calls.(k) <- calls.(k) + d.Spans.d_calls.(k);
        ns.(k) <- ns.(k) +. d.Spans.d_call_ns.(k)
      done)
    ds;
  let mean_us k c = Meter.ratio ns.(k) (float_of_int c) /. 1e3 in
  (Array.mapi mean_us calls, calls)

(* The traced run: half the window untraced (the base of the tracing
   overhead and of the blocking-path ledger), half on a second client
   whose transport is wrapped in the span recorder.  Returns the
   per-layer metrics, and the per-kind round trips for Par_env's
   handoff comparison. *)
let run_traced ?max_ops ?dump spec ~seed ~seconds =
  let ns = seconds *. 1e9 /. 2. in
  let s, _ = repeated_setup spec ~seed ~setups:1 in
  let w0 = window ~capacity:(capacity ~seconds) in
  Stdlib.Gc.compact ();
  let gc0 : Meter.gc_counts = Meter.gc_counts () in
  let el0 = run_window ?max_ops spec s.env.client s.gen s.model w0 ~ns in
  let gc1 = Meter.gc_counts () in
  let ops0 = float_of_int (w0.reads + w0.writes) in
  let untraced_mbs = mb_per_s w0 ~elapsed:el0 ~ns in
  (* Room for 30k ops per traced second and 8 RPCs per op: a 4 KiB op
     averages about 5 once protocol GC's RPCs are counted. *)
  let span_ops = max 1024 (int_of_float (seconds *. 15_000.)) in
  let sp = Spans.create ~max_ops:span_ops ~max_rpcs:(8 * span_ops) in
  let tc = s.env.traced_client sp in
  let w1 = window ~capacity:(capacity ~seconds) in
  Stdlib.Gc.compact ();
  let pool0 = Buf_pool.stats () in
  let el1 = run_window ~spans:sp ?max_ops spec tc s.gen s.model w1 ~ns in
  let pool1 = Buf_pool.stats () in
  let traced_mbs = mb_per_s w1 ~elapsed:el1 ~ns in
  let bad, _ = verify spec s in
  s.env.close ();
  Option.iter
    (fun path ->
      Spans.dump sp ~path
        ~header:
          [
            Printf.sprintf "workload=%s seed=%d nproc=%d ocaml=%s" spec.name
              seed
              (Domain.recommended_domain_count ())
              Sys.ocaml_version;
          ])
    dump;
  let ds = Array.to_list (Spans.digests sp) in
  let of_kind kind =
    List.filter (fun d -> d.Spans.d_kind = Spans.op_code kind) ds
  in
  let writes = of_kind Spans.Write and reads = of_kind Spans.Read in
  let nw = float_of_int (List.length writes) in
  let nr = float_of_int (List.length reads) in
  let total f l = List.fold_left (fun a d -> a +. f d) 0. l in
  let per_write f = Meter.ratio (total f writes) nw in
  let calls d = float_of_int (Array.fold_left ( + ) 0 d.Spans.d_calls) in
  let seals d =
    float_of_int (d.Spans.d_calls.(Spans.swap) + d.Spans.d_calls.(Spans.add))
  in
  let median_us f l = Meter.median (List.map (fun d -> f d /. 1e3) l) in
  let self_us = median_us (fun d -> d.Spans.d_ns -. d.Spans.d_child_ns) in
  let child_us = median_us (fun d -> d.Spans.d_child_ns) in
  let rtt, rtt_calls = rtts ds in
  let gc_us =
    Meter.ratio (total (fun d -> d.Spans.d_ns) (of_kind Spans.Collect)) nw
    /. 1e3
  in
  let counter key = float_of_int (Metrics.counter (Client.metrics tc) key) in
  let lw0 = Meter.sorted w0.lat_w and lr0 = Meter.sorted w0.lat_r in
  let write_p50 = us lw0 0.5 and read_p50 = us lr0 0.5 in
  (* The blocking path of one op: client-side self time plus its round
     trips.  Protocol GC runs between writes, outside Client.write, so it
     is reported beside the path (it costs throughput, not latency). *)
  let write_busy = self_us writes +. child_us writes in
  let read_busy = self_us reads +. child_us reads in
  let per_kop n = Meter.ratio (float_of_int n *. 1e3) ops0 in
  let pool_ratio =
    Meter.ratio
      (float_of_int (pool1.Buf_pool.hits - pool0.Buf_pool.hits))
      (float_of_int (pool1.Buf_pool.gets - pool0.Buf_pool.gets))
  in
  let failed = w0.failed + w1.failed + bad in
  let ops = w0.reads + w0.writes + w1.reads + w1.writes in
  ( {
      Meter.correct = failed = 0;
      attempted = ops + w0.failed + w1.failed;
      failed;
      metrics =
        Layers.rows ~block_size:spec.block_size ~k ~n
        @ [
            ("integrity.digests_per_write", per_write seals, "count");
            ("gf.pool_hit_ratio", pool_ratio, "ratio");
            ("transport.calls_per_write", per_write calls, "count");
            ( "transport.calls_per_read",
              Meter.ratio (total calls reads) nr,
              "count" );
            ( "transport.bytes_per_op",
              Meter.ratio
                (total (fun d -> float_of_int d.Spans.d_bytes) ds)
                (nw +. nr),
              "B" );
            ("transport.swap_us", rtt.(Spans.swap), "us");
            ("transport.add_us", rtt.(Spans.add), "us");
            ("transport.read_us", rtt.(Spans.read), "us");
            ("core.write_self_us", self_us writes, "us");
            ("core.read_self_us", self_us reads, "us");
            ("core.rpc_retries", counter "rpc.retries", "count");
            ( "core.order_rejections",
              counter "write.order_rejections",
              "count" );
            ("gc.us_per_write", gc_us, "us");
            ("gc.tids_acked", counter "gc.tids_acked", "count");
            ("path.write_busy_us", write_busy, "us");
            ("path.write_p50_us", write_p50, "us");
            ("path.write_unexplained_us", write_p50 -. write_busy, "us");
            ("path.read_busy_us", read_busy, "us");
            ("path.read_p50_us", read_p50, "us");
            ("path.read_unexplained_us", read_p50 -. read_busy, "us");
            ( "runtime.minor_gcs_per_kop",
              per_kop (gc1.minor - gc0.minor),
              "count" );
            ( "runtime.major_gcs_per_kop",
              per_kop (gc1.major - gc0.major),
              "count" );
            ( "runtime.major_words_per_op",
              Meter.ratio (gc1.major_words -. gc0.major_words) ops0,
              "words" );
            ("trace.mb_per_s_untraced", untraced_mbs, "MB/s");
            ("trace.mb_per_s_traced", traced_mbs, "MB/s");
            ( "trace.overhead_ratio",
              Meter.ratio traced_mbs untraced_mbs,
              "ratio" );
            ( "trace.spans",
              float_of_int (sp.Spans.ops + sp.Spans.rpcs),
              "count" );
            ("latency.write_p99_us", us lw0 0.99, "us");
            ("latency.read_p99_us", us lr0 0.99, "us");
          ];
      notes = [];
    },
    rtt,
    rtt_calls )
