(** Self-describing per-block integrity records.

    Separate-metadata verification in the style of Androulaki/Cachin et
    al. ("Erasure-Coded Byzantine Storage with Separate Metadata"): each
    stored block is paired with a small sealed record — digest of the
    block bytes, epoch, writer tag — kept apart from the bulk data so
    that checking is cheap and the record itself is tamper-evident.

    The digest covers block bytes only (the post-state of the mutation
    that produced them); epoch and writer are carried alongside inside
    the sealed record.  This keeps the commutative-add algebra intact:
    the same set of adds applied in any order yields the same block and
    therefore the same digest. *)

(** Verdict of {!verify}, ordered by how the fault was caught:
    - [Bad_seal]: the metadata record itself is corrupt;
    - [Stale_epoch]: record and block are internally consistent but
      sealed under a different epoch than the slot is in now — the
      stale-state (rollback) fault;
    - [Digest_mismatch]: bit rot in the block bytes. *)
type status = Valid | Digest_mismatch | Stale_epoch | Bad_seal

type record = {
  digest : int64;  (** {!digest_bytes} of the block bytes *)
  epoch : int;  (** epoch the block was sealed under *)
  writer : int64;  (** opaque tag of the last mutating op *)
  seal : int64;  (** digest of the record's own fields *)
}

val digest_bytes : bytes -> int64
(** 64-bit digest of the block contents: four independent lanes, each
    absorbing little-endian 64-bit words through a step that is a
    bijection in the word, folded together with the block length.  Any
    change confined to one aligned 8-byte word (so every single-bit flip
    and every single-byte change) always changes the digest, and blocks
    of different lengths are kept apart.  Host byte order does not
    matter, and nothing is allocated beyond the result.  Not
    cryptographic: the threat model is bit rot and stale state, not
    adversarial forgery. *)

val pack_writer : seq:int -> blk:int -> client:int -> int64
(** Deterministically folds a transaction id into an opaque writer tag
    (integrity has no dependency on the protocol's tid type). *)

val make : epoch:int -> writer:int64 -> bytes -> record
(** Digest the block and seal a fresh record. *)

val reseal : record -> epoch:int -> record
(** Carry an existing digest into a new epoch (recovery finalize bumps
    the epoch without changing block bytes). *)

val verify : record -> epoch:int -> bytes -> status
(** Check a record against the slot's current epoch and stored bytes.
    Seal first, then epoch, then digest. *)

val bytes_size : int
(** At-rest / wire footprint of one record, in bytes. *)

val pp_status : Format.formatter -> status -> unit
