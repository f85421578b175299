(* Bulk coding kernels behind one signature.

   The protocol spends its compute time in exactly four block-wise
   operations (paper Fig 8a): XOR (add at a storage node), scale
   (broadcast add), scale-XOR (encode/decode accumulation) and delta
   (client preparing an add payload).  Each kernel implements them
   *in place* over caller-provided buffers so the hot paths allocate
   nothing.

   Three implementations:
   - [Scalar (F)]: one symbol at a time through the field's [mul]/[add]
     — the obviously-correct reference the optimized kernels are
     property-tested against (and the baseline the CI throughput
     assertion compares against);
   - [Table8]: GF(2^8), word-sliced XOR plus a C split-nibble region
     multiply (16 bytes per SSSE3 [pshufb] step, a portable byte loop
     elsewhere) over per-alpha 32-byte tables, in the spirit of the
     paper's hand-optimized C (Sec 5.1);
   - [Split16]: GF(2^16), the classic low/high-byte split-table
     multiply: alpha * s = lo[s land 0xff] XOR hi[s lsr 8], where
     lo[b] = alpha * b and hi[b] = alpha * (b << 8) — 512 table entries
     per alpha instead of an unthinkable 65536^2 product table. *)

module type S = sig
  val h : int
  (** Symbol width in bits of the field this kernel computes over. *)

  val name : string
  (** Stable label for benchmarks and test output. *)

  val xor_into : dst:bytes -> src:bytes -> unit
  (** [dst.(i) <- dst.(i) + src.(i)] (field addition = XOR). *)

  val scale_into : int -> dst:bytes -> src:bytes -> unit
  (** [dst.(i) <- alpha * src.(i)].  [dst == src] is allowed. *)

  val scale_xor_into : int -> dst:bytes -> src:bytes -> unit
  (** [dst.(i) <- dst.(i) + alpha * src.(i)] — the fused accumulation
      kernel used by encode/decode and the storage-side broadcast add. *)

  val delta_into : int -> dst:bytes -> v:bytes -> w:bytes -> unit
  (** [dst.(i) <- alpha * (v.(i) - w.(i))] — the add payload a client
      computes when a write changes a data block from [w] to [v]. *)

  val is_zero : bytes -> bool
end

(* Shared length check.  The message keeps the historical "Block_ops"
   prefix: Block_ops re-exports these kernels and callers (and tests)
   match on it. *)
let check_same_length a b =
  if Bytes.length a <> Bytes.length b then
    invalid_arg "Block_ops: blocks of different lengths"

(* Word-sliced XOR: field addition is XOR in any GF(2^h), and the
   little-endian symbol layout makes an 8-byte-wide XOR valid for both
   h = 8 and h = 16, so the optimized kernels share it. *)
let word_xor_into ~dst ~src =
  check_same_length dst src;
  let len = Bytes.length dst in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let off = i * 8 in
    Bytes.set_int64_ne dst off
      (Int64.logxor (Bytes.get_int64_ne dst off) (Bytes.get_int64_ne src off))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst i)
          lxor Char.code (Bytes.unsafe_get src i)))
  done

(* dst := a XOR b, word-sliced (dst may alias either input). *)
let word_xor3_into ~dst ~a ~b =
  check_same_length dst a;
  check_same_length dst b;
  let len = Bytes.length dst in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let off = i * 8 in
    Bytes.set_int64_ne dst off
      (Int64.logxor (Bytes.get_int64_ne a off) (Bytes.get_int64_ne b off))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get a i) lxor Char.code (Bytes.unsafe_get b i)))
  done

let word_is_zero b =
  let len = Bytes.length b in
  let words = len / 8 in
  let rec go_words i =
    i >= words
    || (Int64.equal (Bytes.get_int64_ne b (i * 8)) 0L && go_words (i + 1))
  in
  let rec go_tail i =
    i >= len || (Bytes.get b i = '\000' && go_tail (i + 1))
  in
  go_words 0 && go_tail (words * 8)

(* ------------------------------------------------------------------ *)
(* Scalar reference: one symbol at a time through the field ops.  No
   tables, no word tricks — slow on purpose, and trivially right. *)

module Scalar (F : Field.S) : S = struct
  let h = F.h
  let name = Printf.sprintf "scalar%d" F.h
  let sym = F.h / 8

  let check b =
    if Bytes.length b mod sym <> 0 then
      invalid_arg
        (Printf.sprintf "Kernel.%s: block length not a multiple of %d" name sym)

  let get b o = if sym = 1 then Bytes.get_uint8 b o else Bytes.get_uint16_le b o

  let set b o x =
    if sym = 1 then Bytes.set_uint8 b o x else Bytes.set_uint16_le b o x

  let xor_into ~dst ~src =
    check_same_length dst src;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.add (get dst o) (get src o))
    done

  let scale_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.mul alpha (get src o))
    done

  let scale_xor_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.add (get dst o) (F.mul alpha (get src o)))
    done

  let delta_into alpha ~dst ~v ~w =
    check_same_length dst v;
    check_same_length dst w;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.mul alpha (F.sub (get v o) (get w o)))
    done

  let is_zero b =
    check b;
    let syms = Bytes.length b / sym in
    let rec go i = i >= syms || (get b (i * sym) = F.zero && go (i + 1)) in
    go 0
end

module Scalar8 = Scalar (Field.Gf8)
module Scalar16 = Scalar (Field.Gf16)

(* ------------------------------------------------------------------ *)
(* GF(2^8): word-sliced XOR + a native split-nibble region multiply
   (gf8_stubs.c).  [gf8_region tbl src dst len acc] sets
   dst.(i) <- p, or dst.(i) <- dst.(i) XOR p when [acc], for i < len,
   where p = tbl.[s land 15] XOR tbl.[16 + s lsr 4] and s = src.(i).
   The C side reads exactly [len] bytes of [src] and [dst] unchecked,
   so every caller checks the lengths first. *)

external gf8_select : unit -> bool = "ecs_gf8_select"

external gf8_region :
  string -> bytes -> bytes -> (int[@untagged]) -> bool -> unit
  = "ecs_gf8_region_byte" "ecs_gf8_region"
[@@noalloc]

let gf8_path = if gf8_select () then "ssse3" else "portable"

module Table8 : S = struct
  let h = 8
  let name = "table8"

  (* Per-alpha nibble tables, built eagerly at module init (8 KiB in
     all): bytes 0-15 hold alpha * x and bytes 16-31 hold
     alpha * (x lsl 4), for x < 16.  Since s = lo + (hi lsl 4),
     alpha * s is the XOR of one entry from each half.  The strings are
     immutable before any domain can read them. *)
  let nibble_tables : string array =
    Array.init 256 (fun alpha ->
        String.init 32 (fun i ->
            Char.unsafe_chr
              (if i < 16 then Gf256.mul alpha i
               else Gf256.mul alpha ((i - 16) lsl 4))))

  let nibble_table alpha = Array.unsafe_get nibble_tables (alpha land 0xff)

  let xor_into = word_xor_into

  let scale_into alpha ~dst ~src =
    check_same_length dst src;
    gf8_region (nibble_table alpha) src dst (Bytes.length dst) false

  let scale_xor_into alpha ~dst ~src =
    check_same_length dst src;
    gf8_region (nibble_table alpha) src dst (Bytes.length dst) true

  let delta_into alpha ~dst ~v ~w =
    (* In GF(2^h), v - w = v XOR w: word-sliced subtraction, then a
       scale in place only when alpha <> 1. *)
    word_xor3_into ~dst ~a:v ~b:w;
    if alpha <> 1 then scale_into alpha ~dst ~src:dst

  let is_zero = word_is_zero
end

(* ------------------------------------------------------------------ *)
(* GF(2^16): split-table multiply.  alpha * s decomposes over the low
   and high bytes of s — s = s_lo + (s_hi << 8), so
   alpha * s = alpha * s_lo + alpha * (s_hi << 8) — two 256-entry
   lookups and one XOR per symbol.  65536 possible alphas make eager
   table construction (64 MB) pointless; a code uses only its n - k
   coefficient columns, so tables are built lazily per alpha. *)

module Split16 : S = struct
  let h = 16
  let name = "split16"

  (* Per-alpha (lo, hi) tables: lo.(b) = alpha * b,
     hi.(b) = alpha * (b << 8); 512 ints per alpha.  The memo table is
     {e domain-local}: each domain lazily builds its own copy of the
     handful of coefficient columns its codes use, so the hot path
     never takes a lock and the table can never be structurally
     corrupted by concurrent insertion (a shared Hashtbl.add from two
     domains is undefined behaviour). *)
  let tables_key : (int, int array * int array) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 16)

  (* [Hashtbl.find], not [find_opt]: the hit path must not box an
     option — the kernels promise zero steady-state allocation. *)
  let split_tables alpha =
    let tables = Domain.DLS.get tables_key in
    match Hashtbl.find tables alpha with
    | t -> t
    | exception Not_found ->
      let lo = Array.init 256 (fun b -> Gf65536.mul alpha b) in
      let hi = Array.init 256 (fun b -> Gf65536.mul alpha (b lsl 8)) in
      Hashtbl.add tables alpha (lo, hi);
      (lo, hi)

  let check b =
    if Bytes.length b land 1 <> 0 then
      invalid_arg "Kernel.split16: block length not a multiple of 2"

  let xor_into ~dst ~src =
    check dst;
    word_xor_into ~dst ~src

  let scale_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let lo, hi = split_tables alpha in
    let syms = Bytes.length dst / 2 in
    for i = 0 to syms - 1 do
      let o = i * 2 in
      let s = Bytes.get_uint16_le src o in
      Bytes.set_uint16_le dst o
        (Array.unsafe_get lo (s land 0xff) lxor Array.unsafe_get hi (s lsr 8))
    done

  let scale_xor_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let lo, hi = split_tables alpha in
    let syms = Bytes.length dst / 2 in
    for i = 0 to syms - 1 do
      let o = i * 2 in
      let s = Bytes.get_uint16_le src o in
      let p =
        Array.unsafe_get lo (s land 0xff) lxor Array.unsafe_get hi (s lsr 8)
      in
      Bytes.set_uint16_le dst o (Bytes.get_uint16_le dst o lxor p)
    done

  let delta_into alpha ~dst ~v ~w =
    check dst;
    word_xor3_into ~dst ~a:v ~b:w;
    if alpha <> 1 then scale_into alpha ~dst ~src:dst

  let is_zero b =
    check b;
    word_is_zero b
end

(* ------------------------------------------------------------------ *)

let for_h : int -> (module S) = function
  | 8 -> (module Table8)
  | 16 -> (module Split16)
  | h -> invalid_arg (Printf.sprintf "Kernel.for_h: no kernel for GF(2^%d)" h)

let scalar_for_h : int -> (module S) = function
  | 8 -> (module Scalar8)
  | 16 -> (module Scalar16)
  | h -> invalid_arg (Printf.sprintf "Kernel.scalar_for_h: no field GF(2^%d)" h)
