(* ecstore benchmark: one workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   --trace 0 runs untraced and reports the end-to-end metrics; --trace 1
   runs the traced variant and reports the per-layer metrics (and
   writes its spans to .perfbench/).  Every traced run also measures
   the layers no workload of its own can hold steady on a shared host:
   a Par_env replay of its stream (lib/par) and the simulator's
   crash-and-repair leg (lib/sim, Recovery, Supervisor).
   --tiny shrinks the working set and bounds each window by op count
   instead of time, so deterministic values repeat exactly between runs.
   The last stdout line is one JSON object: {"correct", "attempted",
   "failed", "metrics"}. *)

let mixed = Option.get (Profile.find "mixed-70-30")

(* Working sets: 128 MiB of user data at 64 KiB, larger than a 105 MiB
   last-level cache (a 2-vCPU Xeon VM's), and 8 MiB at 4 KiB, which
   fits in it. *)
let wall_spec name ~tiny =
  let spec backend block_size blocks profile =
    {
      Wall.name;
      backend;
      block_size;
      blocks = (if tiny then 64 else blocks);
      profile;
    }
  in
  match name with
  | "write-64k" ->
    Some
      (spec Wall.Direct 65536 2048
         { mixed with Profile.name = "write-64k"; write_frac = 0.8 })
  | "mixed-4k" -> Some (spec Wall.Direct 4096 2048 mixed)
  | _ -> None

let workloads = [ "write-64k"; "mixed-4k" ]

(* Every per-layer metric, in report order, with its unit. *)
let per_layer =
  [
    ("integrity.digest_us", "us");
    ("integrity.digests_per_write", "count");
    ("rs.delta_us", "us");
    ("rs.decode_us", "us");
    ("gf.xor_mb_per_s", "MB/s");
    ("gf.delta_mb_per_s", "MB/s");
    ("gf.pool_hit_ratio", "ratio");
    ("storage.swap_us", "us");
    ("storage.add_us", "us");
    ("storage.read_us", "us");
    ("transport.calls_per_write", "count");
    ("transport.calls_per_read", "count");
    ("transport.bytes_per_op", "B");
    ("transport.swap_us", "us");
    ("transport.add_us", "us");
    ("transport.read_us", "us");
    ("par.handoff_us", "us");
    ("par.swap_us", "us");
    ("par.add_us", "us");
    ("par.read_us", "us");
    ("par.mb_per_s", "MB/s");
    ("par.write_p50_us", "us");
    ("par.read_p50_us", "us");
    ("core.write_self_us", "us");
    ("core.read_self_us", "us");
    ("core.rpc_retries", "count");
    ("core.order_rejections", "count");
    ("gc.us_per_write", "us");
    ("gc.tids_acked", "count");
    ("path.write_busy_us", "us");
    ("path.write_p50_us", "us");
    ("path.write_unexplained_us", "us");
    ("path.read_busy_us", "us");
    ("path.read_p50_us", "us");
    ("path.read_unexplained_us", "us");
    ("recovery.full_rebuilds", "count");
    ("recovery.delta_hit_ratio", "ratio");
    ("recovery.bytes_read_per_repair", "B");
    ("volume.failovers", "count");
    ("volume.false_alarms", "count");
    ("sim.repair_s", "sim_s");
    ("sim.detect_s", "sim_s");
    ("sim.mb_per_s", "MB/sim_s");
    ("sim.write_mean_ms", "sim_ms");
    ("sim.read_mean_ms", "sim_ms");
    ("sim.write_p99_ms", "sim_ms");
    ("sim.read_p99_ms", "sim_ms");
    ("sim.rpc_retries", "count");
    ("sim.alloc_bytes_per_op", "B");
    ("sim.space_amp", "ratio");
    ("sim.events_per_op", "count");
    ("sim.events_per_s", "1/s");
    ("sim.wall_mb_per_s", "MB/s");
    ("runtime.minor_gcs_per_kop", "count");
    ("runtime.major_gcs_per_kop", "count");
    ("runtime.major_words_per_op", "words");
    ("trace.mb_per_s_untraced", "MB/s");
    ("trace.mb_per_s_traced", "MB/s");
    ("trace.overhead_ratio", "ratio");
    ("trace.spans", "count");
    ("latency.write_p99_us", "us");
    ("latency.read_p99_us", "us");
  ]

let complete (o : Meter.outcome) =
  {
    o with
    Meter.metrics =
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (m, _, _) -> m = name) o.Meter.metrics with
          | Some m -> m
          | None -> (name, 0., unit))
        per_layer;
  }

(* Par_env's handoff: its mean round trip per request kind minus
   Direct_env's on the same op stream, weighted by Par_env's calls. *)
let handoff_us ~par_rtt ~par_calls ~direct_rtt =
  let num = ref 0. and den = ref 0. in
  List.iter
    (fun k ->
      let c = float_of_int par_calls.(k) in
      num := !num +. (c *. (par_rtt.(k) -. direct_rtt.(k)));
      den := !den +. c)
    [ Spans.swap; Spans.add; Spans.read ];
  Meter.ratio !num !den

(* Merge a leg run inside a traced run: its metrics, op counts and
   correctness join the host run's. *)
let merge (o : Meter.outcome) (leg : Meter.outcome) =
  {
    o with
    Meter.correct = o.Meter.correct && leg.Meter.correct;
    attempted = o.Meter.attempted + leg.Meter.attempted;
    failed = o.Meter.failed + leg.Meter.failed;
    metrics = leg.Meter.metrics @ o.Meter.metrics;
  }

let metric (o : Meter.outcome) name =
  match List.find_opt (fun (m, _, _) -> m = name) o.Meter.metrics with
  | Some (_, v, _) -> v
  | None -> 0.

(* lib/par has no workload of its own: with one worker domain beside the
   client, its wall-clock throughput follows the host's vCPU
   availability (halving in busy phases), far beyond any bound.  Its
   layer is measured here instead: the host run's stream and seed run
   again through Par_env, and the difference of the round trips by
   request kind is the handoff cost. *)
let par_twin (o : Meter.outcome) ~rtt ~seed ~seconds ?max_ops spec =
  let twin =
    { spec with Wall.name = spec.Wall.name ^ "-par"; backend = Wall.Par }
  in
  let t, par_rtt, par_calls =
    Wall.run_traced ?max_ops twin ~seed ~seconds:(seconds /. 2.)
  in
  merge o
    {
      t with
      Meter.metrics =
        [
          ( "par.handoff_us",
            handoff_us ~par_rtt ~par_calls ~direct_rtt:rtt,
            "us" );
          ("par.swap_us", par_rtt.(Spans.swap), "us");
          ("par.add_us", par_rtt.(Spans.add), "us");
          ("par.read_us", par_rtt.(Spans.read), "us");
          ("par.mb_per_s", metric t "trace.mb_per_s_untraced", "MB/s");
          ("par.write_p50_us", metric t "path.write_p50_us", "us");
          ("par.read_p50_us", metric t "path.read_p50_us", "us");
        ];
    }

(* One span file per workload, overwritten by its latest traced run. *)
let dump_path name =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (name ^ "-spans.tsv")

let run ~workload ~seed ~seconds ~trace ~tiny =
  let max_ops = if tiny then Some 400 else None in
  let max_reps = if tiny then Some 1 else None in
  match wall_spec workload ~tiny with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" workload
      (String.concat ", " workloads);
    exit 2
  | Some spec when not trace ->
    Wall.run_e2e ?max_ops spec ~seed ~seconds ~setups:(if tiny then 1 else 3)
  | Some spec ->
    let o, rtt, _ =
      Wall.run_traced ?max_ops ~dump:(dump_path workload) spec ~seed
        ~seconds
    in
    let o =
      merge
        (par_twin o ~rtt ~seed ~seconds ?max_ops spec)
        (Sim_repair.leg ?max_reps ~seed ~seconds:(seconds /. 4.) ())
    in
    complete o

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_outcome (o : Meter.outcome) =
  let line (name, v, unit) = Printf.printf "  %-32s %14.4f %s\n" name v unit in
  List.iter line o.Meter.metrics;
  if o.Meter.notes <> [] then begin
    print_endline "  -- not gated:";
    List.iter line o.Meter.notes
  end;
  let attempted = o.Meter.attempted and failed = o.Meter.failed in
  Printf.printf "  %-32s %14d\n  %-32s %14d\n  %-32s %14.6f\n" "attempted"
    attempted "failed" failed "failed_op_ratio"
    (Meter.ratio (float_of_int failed) (float_of_int attempted));
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      o.Meter.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    o.Meter.correct attempted failed
    (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and tiny = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end (0) or per-layer (1) metrics" );
      ("--tiny", Arg.Set tiny, " tiny working set, op-count-bounded windows");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace is 0 or 1";
    exit 2
  end;
  Printf.printf
    "# workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s\n%!"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let o =
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~tiny:!tiny
  in
  print_outcome o
