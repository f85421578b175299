(** Experiment driver: spins up clients with a given number of
    outstanding requests each, runs a workload for a simulated duration,
    and reports aggregate throughput and latency — the measurement loop
    behind Figs 9 and 10. *)

type result = Report.run = {
  duration : float;        (** measured window, simulated seconds *)
  clients : int;
  outstanding : int;
  read_ops : int;
  write_ops : int;
  read_mbs : float;        (** aggregate read throughput, MB/s *)
  write_mbs : float;       (** aggregate write throughput, MB/s *)
  total_mbs : float;
  read_latency : float;    (** mean, seconds; 0 if no reads *)
  write_latency : float;
  msgs : float;            (** messages during the window *)
  recoveries : float;
      (** recoveries completed over the run: the [recovery.phase.done]
          delta of the cluster's {!Metrics.t} *)
  rpc_retries : int;       (** RPC resends after a timeout (whole run) *)
  rpc_giveups : int;       (** RPCs whose retry budget drained *)
  write_giveups : int;     (** writes abandoned on an ambiguous swap *)
  recovery_phases : (string * int) list;
      (** non-zero [recovery.phase.<p>] counts over the run, from the
          cluster's shared {!Metrics.t} (see {!Cluster.metrics}) *)
}

val run :
  ?outstanding:int ->
  ?warmup:float ->
  ?events:(float * (Cluster.t -> unit)) list ->
  ?faults:Net.faults ->
  ?on_sample:(float -> read_mbs:float -> write_mbs:float -> unit) ->
  ?sample_every:float ->
  ?gc_every:float option ->
  ?check:Checker.t ->
  ?failures:Report.failures ref ->
  cluster:Cluster.t ->
  clients:int ->
  duration:float ->
  workload:Generator.spec ->
  unit ->
  result
(** Run [clients] clients, each with [outstanding] request fibers, for
    [duration] simulated seconds after a [warmup] (default 0.05 s, its
    operations are excluded from counts).  [events] are scheduled
    actions (crash injection).  [faults] installs a default network
    fault policy before the run ({!Cluster.set_faults}).  Writes
    abandoned after an ambiguous swap timeout ({!Client.Write_abandoned})
    are recorded as unfinished and the client moves on.
    [sample_every]/[on_sample] stream windowed throughput for timeline
    figures.  [check], when given, records every operation for the
    regular-register checker: writes stamp blocks with fresh tags.
    Operations that drain a retry limit ({!Client.Stuck}) are absorbed
    (stuck writes are recorded as unfinished) and counted.  [failures],
    when given, receives the run's unified failure/health accounting
    ({!Report.failures} — the same record the volume runner reports). *)

val print_result : string -> result -> unit
(** One-line summary to stdout. *)
