(** Named counters for what the simulated substrate observes itself.

    One [Stats.t] is shared by a whole simulated cluster: the network
    counts messages and bytes into it, and the fault layer counts the
    faults it injects and the node-side detections it sees.  Protocol
    events are not counted here — they are {!Trace} events counted by a
    [Metrics] registry. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to a named counter (created on first use). *)

val add : t -> string -> float -> unit
(** Add an amount to a named counter. *)

val counter : t -> string -> float
(** Current value of a counter (0 if never touched). *)

val counters : t -> (string * float) list
(** All counters, sorted by name. *)
