(* End-to-end integrity: sealed checksum records, the defense layers of
   the read path, and the scrub-side cross-member check.

   White-box access (peek_meta / storage_entry) follows the pattern of
   test_scrub.ml: the simulated cluster exposes node internals for
   assertions only. *)

let block_of cluster c =
  Bytes.make (Cluster.config cluster).Config.block_size c

let run_to_completion cluster f =
  let result = ref None in
  Cluster.spawn cluster (fun () -> result := Some (f ()));
  Cluster.run cluster;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not complete"

let cfg_3_5 () = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 ()

let cfg_verified () =
  Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5
    ~integrity:{ Config.default_integrity with Config.verified_reads = true }
    ()

let store_of cluster node = (Cluster.storage_entry cluster node).Directory.store

(* ------------------------------------------------------------------ *)
(* Checksum record unit tests.                                         *)

let test_checksum_roundtrip () =
  let b = Bytes.init 64 (fun i -> Char.chr (i * 3 land 0xff)) in
  let writer = Checksum.pack_writer ~seq:1 ~blk:0 ~client:7 in
  let r = Checksum.make ~epoch:3 ~writer b in
  Alcotest.(check bool) "valid" true (Checksum.verify r ~epoch:3 b = Valid);
  let b' = Bytes.copy b in
  Bytes.set b' 10 '\255';
  Alcotest.(check bool) "bit rot caught" true
    (Checksum.verify r ~epoch:3 b' = Digest_mismatch);
  Alcotest.(check bool) "stale epoch caught" true
    (Checksum.verify r ~epoch:4 b = Stale_epoch);
  let tampered = { r with Checksum.epoch = 9 } in
  Alcotest.(check bool) "tampered record caught" true
    (Checksum.verify tampered ~epoch:9 b = Bad_seal);
  let resealed = Checksum.reseal r ~epoch:4 in
  Alcotest.(check bool) "reseal carries digest" true
    (Checksum.verify resealed ~epoch:4 b = Valid)

(* The digest covers block bytes only, so the commutative-add algebra
   is preserved: the same writes applied in either order leave every
   redundant member with the same block and hence the same digest. *)
let test_digest_commutes_with_adds () =
  let run order =
    let cluster = Cluster.create (cfg_3_5 ()) in
    let client = Cluster.make_client cluster ~id:0 in
    run_to_completion cluster (fun () ->
        List.iter
          (fun i ->
            Client.write client ~slot:0 ~i (block_of cluster (Char.chr (65 + i))))
          order);
    let layout = Cluster.layout cluster in
    let node = Layout.node_of layout ~stripe:0 ~pos:3 in
    let store = store_of cluster node in
    let meta = Storage_node.peek_meta store ~slot:0 in
    let block = Storage_node.peek_block store ~slot:0 in
    (meta.Checksum.digest, block)
  in
  let d1, b1 = run [ 0; 1; 2 ] in
  let d2, b2 = run [ 2; 0; 1 ] in
  Alcotest.(check bytes) "same redundant block" b1 b2;
  Alcotest.(check int64) "same digest either order" d1 d2;
  Alcotest.(check int64) "digest matches bytes" (Checksum.digest_bytes b1) d1

(* ------------------------------------------------------------------ *)
(* The digest against its specification, and its detection guarantee. *)

(* Byte-at-a-time reference of the digest's spec, kept in test code
   only (like [Kernel.Scalar8] beside [Table8]): word [w] is bytes
   [8w, 8w+8) read little-endian, the last one zero-padded; the words of
   whole 32-byte chunks go to lane [w mod 4], every later word to lane
   0; then the lanes and the length are folded in. *)
module Ref_digest = struct
  let mix h w =
    let x = Int64.mul (Int64.logxor h w) 0x9e3779b97f4a7c15L in
    Int64.logor (Int64.shift_left x 31) (Int64.shift_right_logical x 33)

  let digest b =
    let len = Bytes.length b in
    let lanes =
      [| 0xcbf29ce484222325L; 0x84222325cbf29ce4L; 0x6a09e667f3bcc908L;
         0xbb67ae8584caa73bL |]
    in
    let chunked = len / 32 * 32 in
    for w = 0 to ((len + 7) / 8) - 1 do
      let word = ref 0L in
      for i = (8 * w) + 7 downto 8 * w do
        let byte = if i < len then Char.code (Bytes.get b i) else 0 in
        word := Int64.logor (Int64.shift_left !word 8) (Int64.of_int byte)
      done;
      let lane = if (8 * w) + 8 <= chunked then w mod 4 else 0 in
      lanes.(lane) <- mix lanes.(lane) !word
    done;
    let h = Array.fold_left mix lanes.(0) (Array.sub lanes 1 3) in
    mix h (Int64.of_int len)
end

let random_bytes st len =
  Bytes.init len (fun _ -> Char.chr (Random.State.int st 256))

let prop_digest_matches_reference =
  QCheck.Test.make ~name:"digest matches byte-at-a-time reference"
    ~count:500
    QCheck.(pair (int_range 0 300) int)
    (fun (len, seed) ->
      let b = random_bytes (Random.State.make [| seed |]) len in
      Checksum.digest_bytes b = Ref_digest.digest b)

(* Every tail length (len mod 32) at several chunk counts, so each
   path through the word and tail loops is pinned to the spec. *)
let test_digest_every_tail_length () =
  let st = Random.State.make [| 0x7a11 |] in
  for chunks = 0 to 3 do
    for tail = 0 to 31 do
      let b = random_bytes st ((32 * chunks) + tail) in
      Alcotest.(check int64)
        (Printf.sprintf "len %d" (Bytes.length b))
        (Ref_digest.digest b) (Checksum.digest_bytes b)
    done
  done

let flip_bit b bit =
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))))

(* The single-word guarantee at its finest grain: every one-bit flip,
   at every offset of a block with a whole-chunk body and a sub-word
   tail, changes the digest. *)
let test_digest_detects_every_bit_flip () =
  let b = random_bytes (Random.State.make [| 0xb17 |]) ((4 * 1024) + 5) in
  let d = Checksum.digest_bytes b in
  let missed = ref 0 in
  for bit = 0 to (8 * Bytes.length b) - 1 do
    flip_bit b bit;
    if Checksum.digest_bytes b = d then incr missed;
    flip_bit b bit
  done;
  Alcotest.(check int) "undetected single-bit flips" 0 !missed

(* Multi-word corruption is outside the guarantee but must still be
   caught in practice: 2-8 distinct words, each xored with a random
   nonzero mask, across 1000 seeds. *)
let test_digest_detects_multi_word_patterns () =
  let words = 4 * 1024 / 8 in
  let missed = ref 0 in
  for seed = 1 to 1000 do
    let st = Random.State.make [| seed |] in
    let b = random_bytes st (4 * 1024) in
    let d = Checksum.digest_bytes b in
    let n = 2 + Random.State.int st 7 in
    let picked = Hashtbl.create 8 in
    while Hashtbl.length picked < n do
      Hashtbl.replace picked (Random.State.int st words) ()
    done;
    Hashtbl.iter
      (fun w () ->
        let mask = ref 0L in
        while !mask = 0L do
          mask := Random.State.bits64 st
        done;
        Bytes.set_int64_le b (8 * w)
          (Int64.logxor (Bytes.get_int64_le b (8 * w)) !mask))
      picked;
    if Checksum.digest_bytes b = d then incr missed
  done;
  Alcotest.(check int) "undetected multi-word patterns" 0 !missed

(* The length is folded in: all-zero blocks never collide across
   lengths, including lengths that differ only by zero padding. *)
let test_digest_zero_blocks_differ_by_length () =
  let seen = Hashtbl.create 600 in
  for len = 0 to 520 do
    let d = Checksum.digest_bytes (Bytes.make len '\000') in
    (match Hashtbl.find_opt seen d with
    | Some other ->
      Alcotest.failf "zero blocks of %d and %d bytes collide" other len
    | None -> ());
    Hashtbl.replace seen d len
  done

(* ------------------------------------------------------------------ *)
(* Defense layer 1: node-side self-check on plain reads.               *)

let test_plain_read_heals_corruption () =
  let cluster = Cluster.create (cfg_3_5 ()) in
  let client = Cluster.make_client cluster ~id:0 in
  let v =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'p');
        let node = Layout.node_of (Cluster.layout cluster) ~stripe:0 ~pos:0 in
        Alcotest.(check bool) "injected" true
          (Cluster.corrupt_block cluster ~node ~slot:0);
        Client.read client ~slot:0 ~i:0)
  in
  Alcotest.(check bytes) "correct bytes despite rot" (block_of cluster 'p') v;
  Alcotest.(check bool) "node self-check fired" true
    (Stats.counter (Cluster.stats cluster) "integrity.node_detected" >= 1.)

(* Defense layer 2: client-side verified read (the node deliberately
   does not self-check this request — the check is end-to-end). *)

let test_verified_read_catches_corruption () =
  let cluster = Cluster.create (cfg_verified ()) in
  let client = Cluster.make_client cluster ~id:0 in
  let v =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:1 (block_of cluster 'v');
        let node = Layout.node_of (Cluster.layout cluster) ~stripe:0 ~pos:1 in
        Alcotest.(check bool) "injected" true
          (Cluster.corrupt_block cluster ~node ~slot:0);
        Client.read client ~slot:0 ~i:1)
  in
  Alcotest.(check bytes) "correct bytes" (block_of cluster 'v') v;
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "client caught it" true
    (Metrics.counter m "read.verify_caught" >= 1);
  Alcotest.(check bool) "verified reads counted" true
    (Metrics.counter m "read.verified" >= 1)

(* ------------------------------------------------------------------ *)
(* Defense layer 3: the cross-member decode check.                     *)

(* Same-record rollback: block and sealed record restored together, so
   the node's self-check passes — only decoding k-subsets against each
   other can identify the stale member. *)
let test_check_integrity_finds_same_record_rollback () =
  let cluster = Cluster.create (cfg_3_5 ()) in
  let client = Cluster.make_client cluster ~id:0 in
  let report =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster '1');
        let node = Layout.node_of (Cluster.layout cluster) ~stripe:0 ~pos:3 in
        let snap =
          match Cluster.snapshot_block cluster ~node ~slot:0 with
          | Some s -> s
          | None -> Alcotest.fail "no snapshot"
        in
        Client.write client ~slot:0 ~i:0 (block_of cluster '2');
        Alcotest.(check bool) "rolled back" true
          (Cluster.rollback_block cluster ~node ~slot:0 snap);
        Client.check_integrity client ~slot:0)
  in
  Alcotest.(check bool) "inconsistent" false report.Client.ir_consistent;
  Alcotest.(check (list int)) "culprit identified" [ 3 ] report.Client.ir_stale;
  Alcotest.(check (list int)) "self-checks all pass" [] report.Client.ir_checksum

(* Cross-epoch rollback: recovery finalized (epoch bump) between the
   snapshot and the rollback, so the sealed record's epoch betrays the
   stale state to the node's own self-check. *)
let test_check_integrity_finds_cross_epoch_rollback () =
  let cluster = Cluster.create (cfg_3_5 ()) in
  let client = Cluster.make_client cluster ~id:0 in
  let report =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'e');
        let layout = Cluster.layout cluster in
        let victim = Layout.node_of layout ~stripe:0 ~pos:3 in
        let snap =
          match Cluster.snapshot_block cluster ~node:victim ~slot:0 with
          | Some s -> s
          | None -> Alcotest.fail "no snapshot"
        in
        (* Crash another member and repair: recovery finalize bumps the
           stripe epoch everywhere. *)
        Cluster.crash_and_remap_storage cluster
          (Layout.node_of layout ~stripe:0 ~pos:4);
        let rep = Scrub.scrub_slot client ~slot:0 in
        Alcotest.(check int) "repaired" 1 rep.Scrub.repaired;
        Alcotest.(check bool) "rolled back" true
          (Cluster.rollback_block cluster ~node:victim ~slot:0 snap);
        Client.check_integrity client ~slot:0)
  in
  Alcotest.(check (list int)) "stale epoch self-detected" [ 3 ]
    report.Client.ir_checksum

(* ------------------------------------------------------------------ *)
(* Scrub repairs what the layers detect, within bounded rounds.        *)

let test_scrub_repairs_corruption_everywhere () =
  let cluster = Cluster.create (cfg_3_5 ()) in
  let client = Cluster.make_client cluster ~id:0 in
  let reports =
    run_to_completion cluster (fun () ->
        for s = 0 to 2 do
          for i = 0 to 2 do
            Client.write client ~slot:s ~i (block_of cluster 'x')
          done
        done;
        let layout = Cluster.layout cluster in
        for s = 0 to 2 do
          let node = Layout.node_of layout ~stripe:s ~pos:(3 + (s mod 2)) in
          Alcotest.(check bool) "injected" true
            (Cluster.corrupt_block cluster ~node ~slot:s)
        done;
        List.init 3 (fun s -> Scrub.scrub_slot client ~slot:s))
  in
  List.iteri
    (fun s (r : Scrub.report) ->
      Alcotest.(check int) (Printf.sprintf "slot %d repaired" s) 1
        r.Scrub.repaired;
      Alcotest.(check int) (Printf.sprintf "slot %d unrepaired" s) 0
        r.Scrub.unrepaired;
      Alcotest.(check bool)
        (Printf.sprintf "slot %d flagged member rebuilt" s)
        true
        (r.Scrub.integrity_repaired >= 1))
    reports;
  (* One more sweep: everything must now be clean in one round. *)
  let again =
    run_to_completion cluster (fun () ->
        Scrub.scrub client ~slots:[ 0; 1; 2 ])
  in
  Alcotest.(check int) "all healthy after one round" 3 again.Scrub.healthy;
  (* Stripes are whole again, byte-for-byte. *)
  let layout = Cluster.layout cluster in
  for s = 0 to 2 do
    let blocks =
      Array.init 5 (fun pos ->
          let node = Layout.node_of layout ~stripe:s ~pos in
          Storage_node.peek_block (store_of cluster node) ~slot:s)
    in
    Alcotest.(check bool)
      (Printf.sprintf "stripe %d consistent" s)
      true
      (Rs_code.verify_stripe (Cluster.code cluster) blocks)
  done

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "integrity",
    [
      t "checksum record round-trip" test_checksum_roundtrip;
      t "digest commutes with add order" test_digest_commutes_with_adds;
      t "plain read heals bit rot (node self-check)"
        test_plain_read_heals_corruption;
      t "verified read catches bit rot end-to-end"
        test_verified_read_catches_corruption;
      t "cross-member check identifies same-record rollback"
        test_check_integrity_finds_same_record_rollback;
      t "self-check catches cross-epoch rollback"
        test_check_integrity_finds_cross_epoch_rollback;
      t "scrub repairs corruption in bounded rounds"
        test_scrub_repairs_corruption_everywhere;
      t "digest matches reference at every tail length"
        test_digest_every_tail_length;
      t "digest detects every single-bit flip"
        test_digest_detects_every_bit_flip;
      t "digest detects multi-word patterns"
        test_digest_detects_multi_word_patterns;
      t "zero blocks of different lengths differ"
        test_digest_zero_blocks_differ_by_length;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_digest_matches_reference ] )
