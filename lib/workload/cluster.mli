(** Simulated storage cluster: wires the discrete-event network, the
    storage nodes behind a remapping directory, and per-client protocol
    environments — the counterpart of the paper's 8-host testbed
    (Sec 5.1) and of its tuned simulator for larger systems (Sec 5.2).

    Crash injection:
    - {!crash_storage} fail-stops a storage node; with the default
      [`Auto] remap policy the next client that trips over it installs a
      fresh INIT replacement (the paper's directory remap, Sec 3.5);
    - {!crash_client} fail-stops a client: its in-flight fibers die at
      their next environment interaction, and storage nodes' failure
      detectors observe it (lock expiry).  {!run} absorbs the resulting
      [Client_crashed] unwinds and keeps the simulation going.

    Fault injection (see {!Net}): message loss, duplication, delay and
    jitter via {!set_faults} / {!set_storage_link_faults}, one-way
    partitions via {!partition_oneway}, and crash/restart schedules via
    {!schedule_outage}.  All randomness draws from the cluster's seeded
    engine, so a failing run replays exactly from its seed.

    Measurement has two homes, split by who observes the event:
    {!stats} holds what the network and the fault layer count themselves
    ([msgs], [bytes], [rpc.timeout], [faults.*], [integrity.node_*]);
    every protocol event is a {!Trace.event}, counted in the shared
    {!metrics} registry and fanned out to {!on_event} hooks. *)

exception Client_crashed of int

type remap_policy = [ `Auto | `Manual ]

type t

val create :
  ?net_config:Net.config ->
  ?rotate:bool ->
  ?seed:int ->
  ?remap_policy:remap_policy ->
  ?faults:Net.faults ->
  Config.t ->
  t
(** [faults], when given, becomes the default policy of every network
    link from time 0 (equivalent to calling {!set_faults} first). *)

val engine : t -> Engine.t
val net : t -> Net.t
val stats : t -> Stats.t
val config : t -> Config.t

(** Service time a storage node charges for one request beyond the
    generic per-message RPC overhead (per-byte for block-touching
    operations, a small constant for control ones) — exported so other
    simulated harnesses (the sharded volume layer) price requests
    identically. *)
val serve_cost : Config.t -> Proto.request -> float
val code : t -> Rs_code.t
val layout : t -> Layout.t
val directory : t -> Directory.t

val now : t -> float

val transport : t -> id:int -> Transport.t
(** Build the transport for client [id]: a dedicated network node plus
    calls routed through layout and directory.  The same {!Transport.S}
    signature {!Direct_env} implements, so protocol code cannot tell the
    simulator from the in-process harness. *)

val metrics : t -> Metrics.t
(** Shared metrics registry fed by every client built with
    {!make_client} / {!make_volume}: per-op counts and latencies, RPC
    retries/give-ups, recovery phase transitions, GC batches. *)

val trace_sink : t -> Trace.sink
(** The sink {!make_client} installs: feeds {!metrics}, then every
    {!on_event} hook. *)

val on_event : t -> Trace.sink -> unit
(** Subscribe to the structured protocol events of every client built
    with {!make_client} / {!make_volume} (e.g. [Recovery_phase Ph_done]
    on an [Op_recovery] context).  Hooks run synchronously inside the
    emitting client, most recently added first, and must not call back
    into the protocol stack; read the simulated time with {!now}. *)

val make_client : t -> id:int -> Client.t
val make_volume : t -> id:int -> Volume.t

val spawn : t -> (unit -> unit) -> unit
(** Spawn a fiber at the current simulated time. *)

val run : ?until:float -> t -> unit
(** Drive the simulation, absorbing {!Client_crashed} unwinds from
    fibers of crashed clients. *)

val crash_client : t -> int -> unit
val client_crashed : t -> int -> bool

val crash_storage : t -> int -> unit
(** Fail-stop logical storage node [i] without remapping. *)

val remap_storage : t -> int -> unit
(** Install a fresh INIT replacement for logical node [i]. *)

val crash_and_remap_storage : t -> int -> unit

val storage_site : int -> string
(** Stable site label of logical storage node [i] ("s<i>"), the key for
    per-link fault policies and partitions; survives fail-remap. *)

val client_site : int -> string
(** Site label of client [id] ("c<id>"). *)

val set_faults : t -> Net.faults -> unit
(** Default fault policy for every link. *)

val set_storage_link_faults : t -> client:int -> node:int -> Net.faults option -> unit
(** Override (or clear) the policy of both directions between a client
    and a logical storage node. *)

val partition_oneway : t -> src:string -> dst:string -> unit
(** Block all messages from site [src] to site [dst] (see
    {!storage_site} / {!client_site}) until healed. *)

val heal_oneway : t -> src:string -> dst:string -> unit
val heal_all_partitions : t -> unit

val schedule_outage : t -> at:float -> node:int -> down_for:float -> unit
(** Crash logical storage node [node] at absolute time [at] and restart
    it [down_for] seconds later as a fresh INIT replacement that
    re-enters service through the monitoring path (Sec 3.10).  If a
    client already remapped the corpse in the meantime, the restart is a
    no-op. *)

val schedule_blip : t -> at:float -> node:int -> down_for:float -> unit
(** Like {!schedule_outage} but the node returns {e with its state
    intact} (crash-recovery rejoin): the existing store is rebound to a
    fresh endpoint, swept by {!Storage_node.quarantine_inflight}, and
    rejoins as an epoch-stale delta-repair target.  No-op if a client
    already remapped the corpse. *)

val storage_entry : t -> int -> Directory.entry
(** Current physical node behind logical index [i] (tests/inspection). *)

(** {2 At-rest integrity faults}

    Silent faults below the protocol (the node keeps answering
    normally), drawn from a seeded {!Injector} so runs replay exactly.
    Node-side detections are counted in {!stats} under
    ["integrity.node_detected"] / ["integrity.node_stale"]; injections
    under ["faults.corrupt_injected"] / ["faults.rollback_injected"]. *)

val corrupt_block : t -> node:int -> slot:int -> bool
(** Flip 1–4 seeded bit patterns in the stored block of [slot] on
    logical node [node], leaving its integrity record untouched.
    [false] if the slot holds no committed data. *)

type block_snapshot = Storage_node.snapshot

val snapshot_block : t -> node:int -> slot:int -> block_snapshot option
(** Capture a committed block {e and} its sealed record for a later
    {!rollback_block}. *)

val rollback_block : t -> node:int -> slot:int -> block_snapshot -> bool
(** Stale-but-well-formed fault: restore the captured block + record.
    Internally consistent, so only the epoch check (if recovery
    finalized in between) or the cross-member decode check can see it. *)
