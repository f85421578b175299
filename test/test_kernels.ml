(* Cross-checks of the optimized bulk coding kernels against the scalar
   reference, and unit tests for the block buffer pool.

   Every optimized kernel (word-sliced/table GF(2^8), split-table
   GF(2^16)) must agree bit-for-bit with [Kernel.Scalar] over its field
   on every operation, for random alphas and for lengths that exercise
   the word loop, the non-word tail (lengths not a multiple of 8) and
   the empty block.  [Table8]'s scale runs in C without bounds checks,
   so it also gets an every-alpha sweep across the 16-byte vector
   boundary, aliasing and two-domain checks, and a length guard on
   every entry point. *)

let random_block rng len =
  Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

(* Lengths in symbols; converted to bytes per field so GF(2^16) blocks
   stay even while still producing byte lengths 2, 6, 10, 18... that
   are not multiples of 8 (the word-tail path). *)
let sym_lengths = [ 0; 1; 3; 4; 5; 7; 8; 9; 31; 32; 33; 511; 513 ]

let pairs : ((module Kernel.S) * (module Kernel.S)) list =
  [
    ((module Kernel.Scalar8), (module Kernel.Table8));
    ((module Kernel.Scalar16), (module Kernel.Split16));
  ]

let alphas_for h rng =
  let fs = 1 lsl h in
  [ 0; 1; fs - 1 ] @ List.init 24 (fun _ -> Random.State.int rng fs)

let check_agree name expect got =
  if not (Bytes.equal expect got) then
    Alcotest.failf "%s: optimized kernel disagrees with scalar reference" name

let cross_check (module R : Kernel.S) (module K : Kernel.S) () =
  Alcotest.(check int) "same field" R.h K.h;
  let rng = Random.State.make [| 0xCC; K.h |] in
  let sym = K.h / 8 in
  List.iter
    (fun syms ->
      let len = syms * sym in
      List.iter
        (fun alpha ->
          let tag op = Printf.sprintf "%s %s len=%d alpha=%d" K.name op len alpha in
          let src = random_block rng len and dst0 = random_block rng len in
          (* xor_into *)
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.xor_into ~dst:a ~src;
          K.xor_into ~dst:b ~src;
          check_agree (tag "xor_into") a b;
          (* scale_into *)
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.scale_into alpha ~dst:a ~src;
          K.scale_into alpha ~dst:b ~src;
          check_agree (tag "scale_into") a b;
          (* scale_xor_into *)
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.scale_xor_into alpha ~dst:a ~src;
          K.scale_xor_into alpha ~dst:b ~src;
          check_agree (tag "scale_xor_into") a b;
          (* delta_into (v, w fresh so dst contents don't matter) *)
          let v = random_block rng len and w = random_block rng len in
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.delta_into alpha ~dst:a ~v ~w;
          K.delta_into alpha ~dst:b ~v ~w;
          check_agree (tag "delta_into") a b;
          (* is_zero must agree too *)
          Alcotest.(check bool) (tag "is_zero") (R.is_zero a) (K.is_zero b);
          (* scaling anything by 0 must be recognisably zero *)
          let z = Bytes.copy dst0 in
          K.scale_into 0 ~dst:z ~src;
          Alcotest.(check bool) (tag "scale0") true (K.is_zero z))
        (alphas_for K.h rng))
    sym_lengths

(* In-place aliasing: delta_into with dst == v (the storage node applies
   deltas straight onto its live slot block). *)
let test_delta_aliasing () =
  List.iter
    (fun (module K : Kernel.S) ->
      let rng = Random.State.make [| 0xA1; K.h |] in
      let len = 24 * (K.h / 8) in
      let v = random_block rng len and w = random_block rng len in
      let alpha = 3 in
      let expect = Bytes.create len in
      K.delta_into alpha ~dst:expect ~v ~w;
      let dst = Bytes.copy v in
      K.delta_into alpha ~dst ~v:dst ~w;
      Alcotest.(check bytes) (K.name ^ " delta dst==v") expect dst)
    (List.map snd pairs)

(* Every alpha against Scalar8, over lengths 0-49 (the whole block is
   the C byte loop below 16, and 16-49 cross one to three vector steps
   into a tail), a page, and 65541 = 4096 vector steps plus a 5-byte
   tail.  The byte loop is also the whole kernel on hosts without
   SSSE3. *)
let test_table8_all_alphas () =
  let module R = Kernel.Scalar8 in
  let module K = Kernel.Table8 in
  let rng = Random.State.make [| 0x7A8 |] in
  let lengths = List.init 50 Fun.id @ [ 4096; 65541 ] in
  List.iter
    (fun len ->
      let src = random_block rng len and dst0 = random_block rng len in
      let w = random_block rng len in
      let a = Bytes.create len and b = Bytes.create len in
      for alpha = 0 to 255 do
        let tag op = Printf.sprintf "table8 %s len=%d alpha=%d" op len alpha in
        R.scale_into alpha ~dst:a ~src;
        K.scale_into alpha ~dst:b ~src;
        check_agree (tag "scale_into") a b;
        Bytes.blit dst0 0 a 0 len;
        Bytes.blit dst0 0 b 0 len;
        R.scale_xor_into alpha ~dst:a ~src;
        K.scale_xor_into alpha ~dst:b ~src;
        check_agree (tag "scale_xor_into") a b;
        R.delta_into alpha ~dst:a ~v:src ~w;
        K.delta_into alpha ~dst:b ~v:src ~w;
        check_agree (tag "delta_into") a b
      done)
    lengths

(* In-place scaling: dst == src for scale_into and scale_xor_into
   (dst <- alpha * dst and dst <- (1 + alpha) * dst). *)
let test_scale_aliasing () =
  List.iter
    (fun ((module R : Kernel.S), (module K : Kernel.S)) ->
      let rng = Random.State.make [| 0xA2; K.h |] in
      let len = 4099 * (K.h / 8) in
      let src = random_block rng len in
      List.iter
        (fun alpha ->
          let tag op = Printf.sprintf "%s %s dst==src alpha=%d" K.name op alpha in
          let expect = Bytes.create len in
          R.scale_into alpha ~dst:expect ~src;
          let b = Bytes.copy src in
          K.scale_into alpha ~dst:b ~src:b;
          check_agree (tag "scale_into") expect b;
          let expect = Bytes.copy src in
          R.scale_xor_into alpha ~dst:expect ~src;
          let b = Bytes.copy src in
          K.scale_xor_into alpha ~dst:b ~src:b;
          check_agree (tag "scale_xor_into") expect b)
        (alphas_for K.h rng))
    pairs

(* Two domains scale distinct buffers at once through the shared
   nibble tables and must each match Scalar8. *)
let test_table8_two_domains () =
  let alphas = [ 0; 1; 2; 0x53; 0x8e; 255 ] in
  let job seed =
    let rng = Random.State.make [| 0xD0; seed |] in
    let src = random_block rng 65541 in
    let got =
      List.map
        (fun alpha ->
          let dst = Bytes.create (Bytes.length src) in
          for _ = 1 to 20 do
            Kernel.Table8.scale_into alpha ~dst ~src;
            Kernel.Table8.scale_xor_into alpha ~dst ~src:dst
          done;
          dst)
        alphas
    in
    (src, got)
  in
  let d1 = Domain.spawn (fun () -> job 1) in
  let d2 = Domain.spawn (fun () -> job 2) in
  List.iter
    (fun (src, got) ->
      List.iter2
        (fun alpha dst ->
          let expect = Bytes.create (Bytes.length src) in
          Kernel.Scalar8.scale_into alpha ~dst:expect ~src;
          Kernel.Scalar8.scale_xor_into alpha ~dst:expect ~src:expect;
          check_agree (Printf.sprintf "two domains alpha=%d" alpha) expect dst)
        alphas got)
    [ Domain.join d1; Domain.join d2 ]

let test_length_guards () =
  let mismatch = Invalid_argument "Block_ops: blocks of different lengths" in
  let module K = Kernel.Table8 in
  (* The C region multiply trusts these checks: a missed one would
     write past a buffer instead of raising. *)
  List.iter
    (fun (dst_len, src_len) ->
      let dst = Bytes.create dst_len and src = Bytes.create src_len in
      let ok = Bytes.create dst_len in
      let tag op = Printf.sprintf "table8 %s dst=%d src=%d" op dst_len src_len in
      Alcotest.check_raises (tag "xor_into") mismatch (fun () ->
          K.xor_into ~dst ~src);
      Alcotest.check_raises (tag "scale_into") mismatch (fun () ->
          K.scale_into 7 ~dst ~src);
      Alcotest.check_raises (tag "scale_xor_into") mismatch (fun () ->
          K.scale_xor_into 7 ~dst ~src);
      Alcotest.check_raises (tag "delta_into v") mismatch (fun () ->
          K.delta_into 7 ~dst ~v:src ~w:ok);
      Alcotest.check_raises (tag "delta_into w") mismatch (fun () ->
          K.delta_into 7 ~dst ~v:ok ~w:src))
    [ (4, 5); (5, 4); (16, 33); (33, 16) ];
  Alcotest.check_raises "split16 odd length"
    (Invalid_argument "Kernel.split16: block length not a multiple of 2")
    (fun () ->
      Kernel.Split16.scale_into 7 ~dst:(Bytes.create 3) ~src:(Bytes.create 3));
  Alcotest.check_raises "scalar16 odd length"
    (Invalid_argument "Kernel.scalar16: block length not a multiple of 2")
    (fun () ->
      Kernel.Scalar16.scale_into 7 ~dst:(Bytes.create 3) ~src:(Bytes.create 3))

let test_for_h () =
  let (module K8) = Kernel.for_h 8 in
  let (module K16) = Kernel.for_h 16 in
  Alcotest.(check string) "h=8 optimized" "table8" K8.name;
  Alcotest.(check string) "h=16 optimized" "split16" K16.name;
  Alcotest.check_raises "unsupported width"
    (Invalid_argument "Kernel.for_h: no kernel for GF(2^32)") (fun () ->
      ignore (Kernel.for_h 32))

(* --- qcheck: random alphas, lengths and contents ------------------- *)

let prop_matches_scalar ((module R : Kernel.S), (module K : Kernel.S)) =
  let sym = K.h / 8 in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches scalar on random inputs" K.name)
    ~count:300
    QCheck.(
      triple
        (int_range 0 ((1 lsl K.h) - 1))
        (int_range 0 65)
        (pair small_string small_string))
    (fun (alpha, syms, (s1, s2)) ->
      let len = syms * sym in
      let fill s =
        Bytes.init len (fun i ->
            if String.length s = 0 then Char.chr (i * 37 land 0xff)
            else s.[i mod String.length s])
      in
      let src = fill s1 and dst0 = fill s2 in
      let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
      R.scale_xor_into alpha ~dst:a ~src;
      K.scale_xor_into alpha ~dst:b ~src;
      let d1 = Bytes.copy dst0 and d2 = Bytes.copy dst0 in
      R.delta_into alpha ~dst:d1 ~v:src ~w:dst0;
      K.delta_into alpha ~dst:d2 ~v:src ~w:dst0;
      Bytes.equal a b && Bytes.equal d1 d2)

(* --- buffer pool --------------------------------------------------- *)

let test_pool_roundtrip () =
  Buf_pool.reset ();
  let b = Buf_pool.get 64 in
  Alcotest.(check int) "length" 64 (Bytes.length b);
  Buf_pool.put b;
  let b' = Buf_pool.get 64 in
  Alcotest.(check bool) "recycled (physical equality)" true (b == b');
  let c = Buf_pool.get 64 in
  Alcotest.(check bool) "distinct while live" true (c != b');
  let s = Buf_pool.stats () in
  Alcotest.(check int) "gets" 3 s.Buf_pool.gets;
  Alcotest.(check int) "hits" 1 s.Buf_pool.hits;
  Alcotest.(check int) "misses" 2 s.Buf_pool.misses;
  Alcotest.(check int) "puts" 1 s.Buf_pool.puts

let test_pool_size_classes () =
  Buf_pool.reset ();
  let a = Buf_pool.get 16 and b = Buf_pool.get 32 in
  Buf_pool.put a;
  Buf_pool.put b;
  (* Exact-size classes: a 32-byte request never returns the 16-byte
     buffer. *)
  let b' = Buf_pool.get 32 in
  Alcotest.(check int) "exact size" 32 (Bytes.length b');
  Alcotest.(check bool) "right class" true (b == b');
  let z = Buf_pool.get 0 in
  Alcotest.(check int) "zero-length ok" 0 (Bytes.length z);
  Alcotest.check_raises "negative"
    (Invalid_argument "Buf_pool.get: negative length") (fun () ->
      ignore (Buf_pool.get (-1)))

let test_pool_lifo_and_bound () =
  Buf_pool.reset ();
  let a = Buf_pool.get 8 and b = Buf_pool.get 8 in
  Buf_pool.put a;
  Buf_pool.put b;
  (* LIFO: the most recently returned buffer comes back first, so
     replayed runs recycle deterministically. *)
  Alcotest.(check bool) "lifo" true (Buf_pool.get 8 == b);
  Alcotest.(check bool) "then the older one" true (Buf_pool.get 8 == a);
  Buf_pool.reset ();
  (* The per-class free list is bounded; surplus puts are dropped. *)
  let bufs = List.init 200 (fun _ -> Buf_pool.get 8) in
  List.iter Buf_pool.put bufs;
  let s = Buf_pool.stats () in
  Alcotest.(check int) "puts counted" 200 s.Buf_pool.puts;
  Alcotest.(check bool) "surplus dropped" true (s.Buf_pool.drops > 0);
  Buf_pool.reset ()

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "kernels",
    List.map
      (fun ((r, k) : (module Kernel.S) * (module Kernel.S)) ->
        let (module K) = k in
        t
          (Printf.sprintf "%s vs scalar (sweep incl. tails and len 0)" K.name)
          (cross_check r k))
      pairs
    @ [
        t "table8 vs scalar8, every alpha, vector boundary and tails"
          test_table8_all_alphas;
        t "delta_into aliasing (dst == v)" test_delta_aliasing;
        t "scale/scale_xor aliasing (dst == src)" test_scale_aliasing;
        t "table8 on two domains" test_table8_two_domains;
        t "length guards" test_length_guards;
        t "for_h dispatch" test_for_h;
        t "pool get/put roundtrip" test_pool_roundtrip;
        t "pool size classes" test_pool_size_classes;
        t "pool LIFO order and bound" test_pool_lifo_and_bound;
      ]
    @ List.map QCheck_alcotest.to_alcotest
        (List.map prop_matches_scalar pairs) )
