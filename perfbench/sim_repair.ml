(* The simulator leg of the traced run: Vrunner over a Shard_cluster of
   several AJX groups, 1 KiB blocks (the paper's size), one closed-loop
   client replaying a seeded mixed-70-30 op stream.  One pool node
   crashes mid-run; the volume Supervisor detects it, fails its members
   over and rebuilds their stripes (Fig 6), while the regular-register
   Checker watches every op.  It is the only code path through lib/sim,
   Recovery, Rs_code.decode and the Supervisor.

   Its simulated-time results are deterministic for a seed, so the leg
   repeats the identical simulation: the simulated metrics come from the
   first repetition and every later one must match it exactly, and the
   simulator's own speed is the median over repetitions.  That speed is
   compute-bound, and on a shared 2-vCPU VM it swung by 1.6x between
   fast and slow phases lasting minutes (a 0.06 s set-up in one, 0.10 s
   in the other), so no simulator wall-clock figure can hold an
   end-to-end bound there; the leg reports per-layer metrics only. *)

open Ecs_volume

let k = 4
let n = 6
let block_size = 1024
let groups = 4
let pool = 12
let blocks = 1024
let duration = 2.0  (* simulated seconds in the measured window *)
let crash_at = 0.5  (* simulated seconds after the run starts *)

let config () = Config.make ~block_size ~k ~n ()

let placement () =
  Placement.make ~seed:0x7ace ~groups ~nodes_per_group:n ~pool ()

(* The op stream: mixed-70-30 from the workload seed, replayed by the
   single client. *)
let accesses ~seed =
  let p = Option.get (Profile.find "mixed-70-30") in
  let gen = Profile.generator p ~seed ~blocks in
  Array.init 50_000 (fun _ ->
      let r = Profile.next gen in
      { Generator.op = r.Profile.op; block = r.Profile.block })

type rep = {
  r : Vrunner.result;
  consistent : bool;
  repair_s : float;  (** crash to the victim's groups repaired; nan if never *)
  events : int;
  wall_s : float;
  held : float;  (** bytes all group members hold at the end *)
  used_stripes : int;
}

let bytes_held sc =
  let total = ref 0 and stripes = ref 0 in
  for g = 0 to groups - 1 do
    let dir = Shard_cluster.group_directory sc g in
    stripes := !stripes + List.length (Shard_cluster.used_slots sc ~group:g);
    for i = 0 to n - 1 do
      let st = (Directory.lookup dir i).Directory.store in
      total :=
        !total + (Storage_node.slot_count st * block_size)
        + Storage_node.overhead_bytes st
    done
  done;
  (float_of_int !total, !stripes)

let run_once ~seed ~duration ~trace =
  let placement = placement () in
  let sc = Shard_cluster.create ~seed ~placement (config ()) in
  let victim = (Placement.group_nodes placement 0).(0) in
  let ck = Checker.create () in
  let engine = Shard_cluster.engine sc in
  let e0 = Engine.processed engine in
  let t0 = Meter.now_ns () in
  let r =
    Vrunner.run ~outstanding:1
      ~events:[ (crash_at, fun sc -> Shard_cluster.crash_node sc victim) ]
      ~maintenance:4000. ~supervise:true ~check:ck ~sc ~clients:1 ~duration
      ~workload:(Generator.Trace trace) ()
  in
  let wall_s = (Meter.now_ns () -. t0) /. 1e9 in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  let repair_s =
    match List.assoc_opt victim r.Vrunner.repaired_at with
    | Some t -> t -. crash_at
    | None -> nan
  in
  let held, used_stripes = bytes_held sc in
  {
    r;
    consistent;
    repair_s;
    events = Engine.processed engine - e0;
    wall_s;
    held;
    used_stripes;
  }

let ops rep =
  let run = rep.r.Vrunner.run in
  run.Report.read_ops + run.Report.write_ops
let rate rep = float_of_int (ops rep * block_size) /. rep.wall_s /. 1e6

(* The simulated outcome two repetitions must agree on. *)
let fingerprint rep =
  let run = rep.r.Vrunner.run in
  ( run.Report.read_ops,
    run.Report.write_ops,
    rep.r.Vrunner.p99_read,
    rep.r.Vrunner.p99_write,
    rep.repair_s,
    rep.events,
    rep.held )

let failures rep =
  let f = rep.r.Vrunner.failures in
  f.Report.write_abandoned + f.Report.write_stuck
  + if rep.consistent && not (Float.is_nan rep.repair_s) then 0 else 1

(* Repeat the simulation until [seconds] of wall time have passed (at
   least [min_reps] times, at most [max_reps]). *)
let repeat ~seed ~trace ~seconds ~min_reps ~max_reps =
  let stop = Meter.now_ns () +. (seconds *. 1e9) in
  let rec go acc i =
    if i >= max_reps || (i >= min_reps && Meter.now_ns () >= stop) then
      List.rev acc
    else begin
      (* each repetition starts from a compacted heap, so it does not
         pay for collecting its predecessors' garbage *)
      Stdlib.Gc.compact ();
      go (run_once ~seed ~duration ~trace :: acc) (i + 1)
    end
  in
  go [] 0

let summary reps =
  let first = List.hd reps in
  let same = List.for_all (fun r -> fingerprint r = fingerprint first) reps in
  let failed = List.fold_left (fun a r -> a + failures r) 0 reps in
  (first, same, failed, List.fold_left (fun a r -> a + ops r) 0 reps)

(* Run the leg for about [seconds] of wall time (at least one
   repetition, at most [max_reps]). *)
let leg ?(max_reps = max_int) ~seed ~seconds () =
  let trace = accesses ~seed in
  Stdlib.Gc.compact ();
  let a0 = Meter.alloc_words () in
  let reps = repeat ~seed ~trace ~seconds ~min_reps:1 ~max_reps in
  let words = Meter.alloc_words () -. a0 in
  let first, same, failed, total_ops = summary reps in
  let r = first.r in
  let count n = float_of_int n in
  let repairs = count (r.repair_delta_hits + r.repair_full_rebuilds) in
  let detect_s =
    match r.detections with (_, t) :: _ -> t -. crash_at | [] -> nan
  in
  let events = count first.events in
  {
    Meter.correct = same && failed = 0;
    attempted = total_ops;
    failed;
    metrics =
      [
        ("recovery.full_rebuilds", count r.repair_full_rebuilds, "count");
        ( "recovery.delta_hit_ratio",
          Meter.ratio (count r.repair_delta_hits) repairs,
          "ratio" );
        ( "recovery.bytes_read_per_repair",
          Meter.ratio (count r.repair_bytes_read) repairs,
          "B" );
        ("volume.failovers", count r.supervisor_failovers, "count");
        ("volume.false_alarms", count r.supervisor_false_alarms, "count");
        ("sim.repair_s", first.repair_s, "sim_s");
        ("sim.detect_s", detect_s, "sim_s");
        ("sim.mb_per_s", r.run.Report.total_mbs, "MB/sim_s");
        (* Simulated time carries its own units.  Vrunner.run reports
           the mean and the p99 of each op kind. *)
        ("sim.write_mean_ms", r.run.Report.write_latency *. 1e3, "sim_ms");
        ("sim.read_mean_ms", r.run.Report.read_latency *. 1e3, "sim_ms");
        ("sim.write_p99_ms", r.p99_write *. 1e3, "sim_ms");
        ("sim.read_p99_ms", r.p99_read *. 1e3, "sim_ms");
        ("sim.rpc_retries", count r.run.Report.rpc_retries, "count");
        ( "sim.alloc_bytes_per_op",
          Meter.ratio (words *. 8.) (count total_ops),
          "B" );
        ( "sim.space_amp",
          first.held /. count (first.used_stripes * k * block_size),
          "ratio" );
        ( "sim.events_per_op",
          Meter.ratio events (count (ops first)),
          "count" );
        ("sim.events_per_s", Meter.ratio events first.wall_s, "1/s");
        ("sim.wall_mb_per_s", Meter.median (List.map rate reps), "MB/s");
      ];
    notes = [];
  }
