type op_kind =
  | Op_read
  | Op_write
  | Op_degraded_read
  | Op_recovery
  | Op_gc
  | Op_monitor
  | Op_verify
  | Op_verified_read
  | Op_scrub

let op_kind_to_string = function
  | Op_read -> "read"
  | Op_write -> "write"
  | Op_degraded_read -> "degraded_read"
  | Op_recovery -> "recovery"
  | Op_gc -> "gc"
  | Op_monitor -> "monitor"
  | Op_verify -> "verify"
  | Op_verified_read -> "verified_read"
  | Op_scrub -> "scrub"

let all_op_kinds =
  [
    Op_read;
    Op_write;
    Op_degraded_read;
    Op_recovery;
    Op_gc;
    Op_monitor;
    Op_verify;
    Op_verified_read;
    Op_scrub;
  ]

type ctx = {
  op_id : int;
  client : int;
  kind : op_kind;
  slot : int;
  parent : int option;
}

type recovery_phase =
  | Ph_delta
  | Ph_lock
  | Ph_backoff
  | Ph_adopt
  | Ph_collect
  | Ph_weaken
  | Ph_decode
  | Ph_finalize
  | Ph_done

let recovery_phase_to_string = function
  | Ph_delta -> "delta"
  | Ph_lock -> "lock"
  | Ph_backoff -> "backoff"
  | Ph_adopt -> "adopt"
  | Ph_collect -> "collect"
  | Ph_weaken -> "weaken"
  | Ph_decode -> "decode"
  | Ph_finalize -> "finalize"
  | Ph_done -> "done"

let all_recovery_phases =
  [
    Ph_delta;
    Ph_lock;
    Ph_backoff;
    Ph_adopt;
    Ph_collect;
    Ph_weaken;
    Ph_decode;
    Ph_finalize;
    Ph_done;
  ]

type swap_outcome = Sw_applied | Sw_locked | Sw_node_down

type event =
  | Op_begin
  | Op_end of { ok : bool; elapsed : float }
  | Rpc_retry of { req : Proto.request; attempt : int; backoff : float }
  | Rpc_give_up of { req : Proto.request; attempts : int }
  | Swap_result of { outcome : swap_outcome; tries : int }
  | Add_order_rejected of { pos : int; round : int }
  | Write_give_up of { reason : string }
  | Recovery_phase of recovery_phase
  | Gc_batch of { phase : [ `Recent | `Old ]; sent : int; acked : int }
  | Probe_result of { node : int; stale : int; init : int }
  | Health_transition of { node : int; from_ : string; to_ : string }
  | Hedge_launched of { node : int }
  | Hedge_won of { node : int }
  | Breaker_fast_fail of { node : int }
  | Verified_read of { ok : bool }
      (** one end-to-end checked read completed; [ok] iff no member had
          to be caught and repaired along the way *)
  | Integrity_detected of { pos : int; fault : [ `Checksum | `Stale ] }
      (** stripe member [pos] caught holding bad state: bit rot /
          corrupt metadata ([`Checksum]) or well-formed-but-old state
          ([`Stale]) *)
  | Integrity_repaired of { pos : int }
      (** member [pos] rebuilt after an integrity detection *)
  | Repair_result of { delta : bool; bytes_read : int; bytes_shipped : int }
      (** one slot repair completed: [delta] iff the stale member was
          caught up by shipping its missed adds rather than rebuilt from
          [k] full blocks; byte counts are protocol wire sizes *)

type sink = ctx -> event -> unit

let null_sink _ _ = ()
let compose sinks ctx event = List.iter (fun s -> s ctx event) sinks

let swap_outcome_to_string = function
  | Sw_applied -> "applied"
  | Sw_locked -> "locked"
  | Sw_node_down -> "node_down"

let pp_event ppf = function
  | Op_begin -> Format.fprintf ppf "begin"
  | Op_end { ok; elapsed } ->
    Format.fprintf ppf "end %s elapsed=%.9f" (if ok then "ok" else "fail") elapsed
  | Rpc_retry { req; attempt; backoff } ->
    Format.fprintf ppf "rpc.retry attempt=%d backoff=%.6f %a" attempt backoff
      Proto.pp_request req
  | Rpc_give_up { req; attempts } ->
    Format.fprintf ppf "rpc.giveup attempts=%d %a" attempts Proto.pp_request req
  | Swap_result { outcome; tries } ->
    Format.fprintf ppf "swap %s tries=%d" (swap_outcome_to_string outcome) tries
  | Add_order_rejected { pos; round } ->
    Format.fprintf ppf "add.order pos=%d round=%d" pos round
  | Write_give_up { reason } -> Format.fprintf ppf "write.giveup %s" reason
  | Recovery_phase p ->
    Format.fprintf ppf "recovery.%s" (recovery_phase_to_string p)
  | Gc_batch { phase; sent; acked } ->
    Format.fprintf ppf "gc.%s sent=%d acked=%d"
      (match phase with `Recent -> "recent" | `Old -> "old")
      sent acked
  | Probe_result { node; stale; init } ->
    Format.fprintf ppf "probe node=%d stale=%d init=%d" node stale init
  | Health_transition { node; from_; to_ } ->
    Format.fprintf ppf "health node=%d %s->%s" node from_ to_
  | Hedge_launched { node } -> Format.fprintf ppf "hedge.launch node=%d" node
  | Hedge_won { node } -> Format.fprintf ppf "hedge.won node=%d" node
  | Breaker_fast_fail { node } ->
    Format.fprintf ppf "breaker.fast_fail node=%d" node
  | Verified_read { ok } -> Format.fprintf ppf "read.verified ok=%b" ok
  | Integrity_detected { pos; fault } ->
    Format.fprintf ppf "integrity.detected pos=%d fault=%s" pos
      (match fault with `Checksum -> "checksum" | `Stale -> "stale")
  | Integrity_repaired { pos } ->
    Format.fprintf ppf "integrity.repaired pos=%d" pos
  | Repair_result { delta; bytes_read; bytes_shipped } ->
    Format.fprintf ppf "repair.%s read=%dB shipped=%dB"
      (if delta then "delta" else "full")
      bytes_read bytes_shipped

let event_to_string e = Format.asprintf "%a" pp_event e

let pp_ctx ppf c =
  Format.fprintf ppf "op=%d client=%d kind=%s%s%s" c.op_id c.client
    (op_kind_to_string c.kind)
    (if c.slot >= 0 then Printf.sprintf " slot=%d" c.slot else "")
    (match c.parent with
    | Some p -> Printf.sprintf " parent=%d" p
    | None -> "")
