(* Recovery activity of a simulated cluster, read back from its shared
   Metrics registry. *)

let counter cluster key = Metrics.counter (Cluster.metrics cluster) key

(* Recovery counters bumped so far.  A recovery bumps a
   [recovery.phase.*] counter as soon as it begins (a delta probe or
   the phase-1 lock sweep) and an [op.recovery.*] counter when it ends,
   so 0 means no recovery ever began. *)
let recovery_activity cluster =
  List.fold_left
    (fun acc (key, v) ->
      if
        String.starts_with ~prefix:"recovery.phase." key
        || String.starts_with ~prefix:"op.recovery." key
      then acc + v
      else acc)
    0
    (Metrics.counters (Cluster.metrics cluster))

(* Recoveries that finished (Fig 6 phase 3, or a delta catch-up). *)
let recoveries_done cluster = counter cluster "recovery.phase.done"
