(* Self-describing per-block integrity records (separate-metadata style,
   after Androulaki/Cachin et al.).

   Each stored block carries a small metadata record kept *apart* from
   the block bytes: a digest of the current block contents, the epoch
   the block belongs to, and an opaque writer tag identifying the last
   mutating operation.  The record also seals itself (a digest over its
   own fields) so a rotted record is as detectable as a rotted block.

   Two deliberate design points:

   - The digest covers the block bytes only — the post-state of
     whatever mutation produced them.  Epoch and writer ride alongside
     in the sealed record instead of being folded into the digest, so
     the commutative-add path keeps its algebra: applying the same set
     of adds in any order yields the same block bytes and therefore the
     same digest.

   - Verification is [record x current epoch x block bytes]: a record
     whose seal fails is corrupt metadata, a record sealed under a
     different epoch is well-formed but stale (the rollback fault), and
     a digest mismatch is bit rot in the block itself. *)

type status = Valid | Digest_mismatch | Stale_epoch | Bad_seal

type record = { digest : int64; epoch : int; writer : int64; seal : int64 }

(* The digest: a word-wide, four-lane 64-bit hash.  Not cryptographic —
   the threat model is bit rot and stale state, not an adversary forging
   blocks.

   Everything goes through one primitive, [mix h w]: xor the word in,
   multiply by an odd constant, rotate.  Each step is a bijection, so
   [mix h] is a bijection in [w] for every state [h], and [mix _ w] one
   in [h].  The rotate feeds the product's high bits back into the low
   ones; a multiply alone only carries upward, so top-bit flips in two
   words sharing a lane would cancel.

   The block is read as little-endian 64-bit words, so digests do not
   depend on host byte order.  Word [i] of each 32-byte chunk feeds lane
   [i]; the 0-3 whole words after the last chunk, then the zero-padded
   1-7 byte tail, feed lane 0.  The lanes are independent chains, which
   lets the CPU overlap their multiplies.  They are folded together,
   then the block length, with the same [mix].

   Detection guarantee: a change confined to one aligned 8-byte word (or
   to the sub-word tail) alters exactly one lane's state right after
   that word is absorbed.  Every later step is a bijection in the lane
   state and the final fold is a bijection in each lane, so the digest
   always changes.  That covers every single-bit flip and every
   single-byte change.  Folding in the length separates blocks that
   differ only by trailing zero bytes. *)
let k_mul = 0x9e3779b97f4a7c15L

let[@inline] mix h w =
  let x = Int64.mul (Int64.logxor h w) k_mul in
  Int64.logor (Int64.shift_left x 31) (Int64.shift_right_logical x 33)

let seed0 = 0xcbf29ce484222325L
let seed1 = 0x84222325cbf29ce4L
let seed2 = 0x6a09e667f3bcc908L
let seed3 = 0xbb67ae8584caa73bL

(* Little-endian word load without the bounds check: every offset
   [digest_bytes] passes is below [Bytes.length b - 7] by construction,
   and the check (which reloads the length) would otherwise cost more
   instructions than the mixing itself.  [Sys.big_endian] is a constant,
   so one branch compiles away. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word_le b off =
  if Sys.big_endian then bswap64 (get64u b off) else get64u b off

let digest_bytes b =
  let len = Bytes.length b in
  let chunks = len lsr 5 in
  let l0 = ref seed0 and l1 = ref seed1 in
  let l2 = ref seed2 and l3 = ref seed3 in
  for c = 0 to chunks - 1 do
    let off = c lsl 5 in
    l0 := mix !l0 (word_le b off);
    l1 := mix !l1 (word_le b (off + 8));
    l2 := mix !l2 (word_le b (off + 16));
    l3 := mix !l3 (word_le b (off + 24))
  done;
  let words_end = len land lnot 7 in
  let off = ref (chunks lsl 5) in
  while !off < words_end do
    l0 := mix !l0 (word_le b !off);
    off := !off + 8
  done;
  if words_end < len then begin
    let tail = ref 0L in
    for i = len - 1 downto words_end do
      tail :=
        Int64.logor (Int64.shift_left !tail 8)
          (Int64.of_int (Char.code (Bytes.unsafe_get b i)))
    done;
    l0 := mix !l0 !tail
  end;
  mix (mix (mix (mix !l0 !l1) !l2) !l3) (Int64.of_int len)

let pack_writer ~seq ~blk ~client =
  mix (mix (mix seed0 (Int64.of_int seq)) (Int64.of_int blk))
    (Int64.of_int client)

let seal_of ~digest ~epoch ~writer =
  mix (mix (mix seed0 digest) (Int64.of_int epoch)) writer

let make ~epoch ~writer block =
  let digest = digest_bytes block in
  { digest; epoch; writer; seal = seal_of ~digest ~epoch ~writer }

let reseal r ~epoch =
  { r with epoch; seal = seal_of ~digest:r.digest ~epoch ~writer:r.writer }

let verify r ~epoch block =
  if r.seal <> seal_of ~digest:r.digest ~epoch:r.epoch ~writer:r.writer then
    Bad_seal
  else if r.epoch <> epoch then Stale_epoch
  else if digest_bytes block <> r.digest then Digest_mismatch
  else Valid

(* Wire/at-rest footprint: digest + epoch + writer + seal. *)
let bytes_size = 8 + 4 + 8 + 8

let pp_status fmt s =
  Format.pp_print_string fmt
    (match s with
    | Valid -> "valid"
    | Digest_mismatch -> "digest-mismatch"
    | Stale_epoch -> "stale-epoch"
    | Bad_seal -> "bad-seal")
