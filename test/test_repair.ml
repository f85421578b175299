(* Delta repair (repair-bandwidth-frugal recovery): the per-member add
   log, catch-up of an epoch-stale returning member by shipping only
   the adds it missed, reseal across epochs, commutation with adds that
   land concurrently with the catch-up, and the capped-log fallback to
   full Fig 6 reconstruction.

   All scenarios run over [Direct_env] (single-threaded, failure
   injection via crash/revive) with [rotate:false], so stripe position
   [pos] always lives on node [pos]: data members 0..k-1, redundant
   members k..n-1.  The recipe for "a returning node missed a write":

     1. writes complete normally (history),
     2. the victim node crashes,
     3. a write stalls — its add cannot reach the victim ([Stuck]),
     4. a recovery by a healthy client folds the stalled write into a
        new epoch at the live members,
     5. the victim revives with its state intact: NORM, digest-valid,
        but epoch-stale and missing the folded add.

   A fresh client runs the repairs: the writer's circuit breaker has
   tripped on the victim during step 3, and a separate client sees the
   revived node immediately. *)

let blk cfg c = Bytes.make cfg.Config.block_size c

let cfg_delta ?repair () =
  Config.make ?repair ~strategy:Config.Serial ~t_p:1 ~block_size:64 ~k:3 ~n:5
    ()

let read_char client ~slot ~i =
  let b = Client.read client ~slot ~i in
  Bytes.get b 0

(* Stall a write against a crashed redundant member: the swap lands at
   the data node and the add reaches every live redundant member, but
   the victim's add keeps failing until the retry budget drains. *)
let stalled_write client ~slot ~i v =
  match Client.write client ~slot ~i v with
  | _ -> Alcotest.fail "write against a dead redundant member completed"
  | exception Client.Stuck _ -> ()

let test_catchup_ships_missed_add () =
  let cfg = cfg_delta () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let fixer = Direct_env.make_client env ~id:9 in
  Client.write w ~slot:0 ~i:0 (blk cfg 'a');
  Client.write w ~slot:0 ~i:1 (blk cfg 'b');
  Direct_env.crash_node env 3;
  stalled_write w ~slot:0 ~i:0 (blk cfg 'B');
  (* Fold the stalled write into a new epoch at the four live members;
     the victim stays at the old epoch with the old base. *)
  Client.recover_slot fixer ~slot:0;
  Direct_env.revive_node env 3;
  let full_before = Client.recoveries_run fixer - Client.delta_repairs_run fixer in
  Client.recover_slot fixer ~slot:0;
  Alcotest.(check int) "catch-up used delta repair" 1 (Client.delta_repairs_run fixer);
  Alcotest.(check int)
    "no extra full rebuild" full_before
    (Client.recoveries_run fixer - Client.delta_repairs_run fixer);
  (* Reseal to the target epoch: the victim now carries the common
     epoch and a digest that verifies against its patched block. *)
  let store p = Direct_env.node_store env p in
  Alcotest.(check int)
    "victim resealed to the common epoch"
    (Storage_node.peek_epoch (store 4) ~slot:0)
    (Storage_node.peek_epoch (store 3) ~slot:0);
  Alcotest.(check bool)
    "victim digest valid" true
    (Storage_node.slot_status (store 3) ~slot:0 = Checksum.Valid);
  Alcotest.(check bool)
    "stripe healthy" true
    (Client.verify_slot fixer ~slot:0).Client.sh_healthy;
  Alcotest.(check char) "folded write visible" 'B' (read_char fixer ~slot:0 ~i:0);
  Alcotest.(check char) "untouched block intact" 'b' (read_char fixer ~slot:0 ~i:1)

let test_catchup_commutes_with_concurrent_adds () =
  let cfg = cfg_delta () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let w2 = Direct_env.make_client env ~id:1 in
  let fixer = Direct_env.make_client env ~id:9 in
  Client.write w ~slot:0 ~i:0 (blk cfg 'a');
  Direct_env.crash_node env 3;
  stalled_write w ~slot:0 ~i:0 (blk cfg 'B');
  Client.recover_slot fixer ~slot:0;
  Direct_env.revive_node env 3;
  (* A live-epoch write lands at the stale member before its catch-up:
     the victim absorbs the add under the newer epoch (adds are only
     rejected when they trail the member's own epoch).  The catch-up
     must then skip the absorbed entry — shipping it again would
     double-apply — while still delivering the one the victim missed. *)
  Client.write w2 ~slot:0 ~i:1 (blk cfg 'C');
  Client.recover_slot fixer ~slot:0;
  Alcotest.(check int) "delta repair despite concurrent add" 1
    (Client.delta_repairs_run fixer);
  Alcotest.(check bool)
    "stripe healthy" true
    (Client.verify_slot fixer ~slot:0).Client.sh_healthy;
  Alcotest.(check char) "folded write visible" 'B' (read_char fixer ~slot:0 ~i:0);
  Alcotest.(check char) "concurrent write visible" 'C' (read_char fixer ~slot:0 ~i:1)

let test_data_member_catchup_is_pure_epoch_advance () =
  (* Data members never receive adds, so a stale data member catches up
     by epoch advance + reseal alone — no payload shipped, no k-block
     read.  Writes to block 0 involve nodes {0, 3, 4} only, so they
     complete while node 1 is down. *)
  let cfg = cfg_delta () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let fixer = Direct_env.make_client env ~id:9 in
  Client.write w ~slot:0 ~i:0 (blk cfg 'a');
  Client.write w ~slot:0 ~i:1 (blk cfg 'b');
  Direct_env.crash_node env 1;
  Client.write w ~slot:0 ~i:0 (blk cfg 'B');
  Client.recover_slot fixer ~slot:0;
  Direct_env.revive_node env 1;
  Client.recover_slot fixer ~slot:0;
  Alcotest.(check int) "delta repair used" 1 (Client.delta_repairs_run fixer);
  let store p = Direct_env.node_store env p in
  Alcotest.(check int)
    "data member resealed to the common epoch"
    (Storage_node.peek_epoch (store 4) ~slot:0)
    (Storage_node.peek_epoch (store 1) ~slot:0);
  Alcotest.(check bool)
    "stripe healthy" true
    (Client.verify_slot fixer ~slot:0).Client.sh_healthy;
  Alcotest.(check char) "new value visible" 'B' (read_char fixer ~slot:0 ~i:0);
  Alcotest.(check char) "data member's block intact" 'b' (read_char fixer ~slot:0 ~i:1)

let test_log_overflow_falls_back_to_full_rebuild () =
  (* A delta log capped below one entry evicts every add as it is
     logged, advancing the completeness floor past any stale epoch: no
     member ever qualifies as a source, and the catch-up must fall back
     to full Fig 6 reconstruction — slower, but always correct. *)
  let repair = { Config.default_repair with Config.delta_log_cap = 16 } in
  let cfg = cfg_delta ~repair () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let fixer = Direct_env.make_client env ~id:9 in
  Client.write w ~slot:0 ~i:0 (blk cfg 'a');
  Direct_env.crash_node env 3;
  stalled_write w ~slot:0 ~i:0 (blk cfg 'B');
  Client.recover_slot fixer ~slot:0;
  Direct_env.revive_node env 3;
  let recov_before = Client.recoveries_run fixer in
  Client.recover_slot fixer ~slot:0;
  Alcotest.(check int) "no delta repair" 0 (Client.delta_repairs_run fixer);
  Alcotest.(check int)
    "full rebuild ran" (recov_before + 1) (Client.recoveries_run fixer);
  Alcotest.(check bool)
    "stripe healthy" true
    (Client.verify_slot fixer ~slot:0).Client.sh_healthy;
  Alcotest.(check char) "value correct" 'B' (read_char fixer ~slot:0 ~i:0)

let test_delta_log_bookkeeping () =
  (* White-box: the per-slot log retains one entry per applied add, the
     byte cap evicts oldest-first while advancing the floor, and GC'd
     tids move into the tombstone set for duplicate suppression. *)
  let cfg = cfg_delta () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let store = Direct_env.node_store env 3 in
  for _ = 1 to 3 do
    Client.write w ~slot:0 ~i:0 (blk cfg 'x')
  done;
  Alcotest.(check int)
    "one log entry per add" 3
    (List.length (Storage_node.peek_dlog store ~slot:0));
  Alcotest.(check bool)
    "log bytes cover the payloads" true
    (Storage_node.peek_dlog_bytes store ~slot:0 >= 3 * cfg.Config.block_size);
  Alcotest.(check int)
    "floor at genesis" 0
    (Storage_node.peek_dlog_floor store ~slot:0);
  Alcotest.(check int) "no tombs before GC" 0
    (List.length (Storage_node.peek_tombs store ~slot:0));
  (* Two-phase GC: recent -> old, then dropped (into the tombs). *)
  Client.collect_garbage w;
  Client.collect_garbage w;
  Alcotest.(check int) "GC'd tids tombstoned" 3
    (List.length (Storage_node.peek_tombs store ~slot:0));
  (* Capped log: 100 bytes holds at most one 64-byte-payload entry, so
     eviction must have advanced the floor past the genesis epoch. *)
  let repair = { Config.default_repair with Config.delta_log_cap = 100 } in
  let cfg = cfg_delta ~repair () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let store = Direct_env.node_store env 3 in
  for _ = 1 to 3 do
    Client.write w ~slot:0 ~i:0 (blk cfg 'y')
  done;
  Alcotest.(check bool)
    "log bytes within cap" true
    (Storage_node.peek_dlog_bytes store ~slot:0 <= 100);
  Alcotest.(check bool)
    "eviction advanced the floor" true
    (Storage_node.peek_dlog_floor store ~slot:0 > 0)

let test_tombstone_count_tracks_list () =
  (* White-box: the per-slot tombstone count that the cap check reads
     must equal the tombstone list's length through every path that
     grows or resets it: GC drops (up to and past the cap), finalize,
     mark-init and a delta catch-up. *)
  let count store = Storage_node.peek_tombs_count store ~slot:0 in
  let same label store =
    Alcotest.(check int) label
      (List.length (Storage_node.peek_tombs store ~slot:0))
      (count store)
  in
  let gc_writes w cfg n =
    for _ = 1 to n do
      Client.write w ~slot:0 ~i:0 (blk cfg 'x')
    done;
    Client.collect_garbage w;
    Client.collect_garbage w
  in
  let repair = { Config.default_repair with Config.tombs_cap = 4 } in
  let cfg = cfg_delta ~repair () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let store = Direct_env.node_store env 3 in
  gc_writes w cfg 3;
  Alcotest.(check int) "GC'd tids counted" 3 (count store);
  same "after gc" store;
  gc_writes w cfg 3;
  Alcotest.(check int) "count held at the cap" 4 (count store);
  same "past the cap" store;
  let epoch = Storage_node.peek_epoch store ~slot:0 + 1 in
  for p = 0 to cfg.Config.n - 1 do
    ignore
      (Storage_node.handle (Direct_env.node_store env p) ~caller:0 ~slot:0
         (Proto.Finalize { epoch }))
  done;
  Alcotest.(check int) "finalize clears the count" 0 (count store);
  same "after finalize" store;
  gc_writes w cfg 2;
  Alcotest.(check int) "counting resumes in the new epoch" 2 (count store);
  same "after gc in the new epoch" store;
  ignore (Storage_node.handle store ~caller:0 ~slot:0 Proto.Mark_init);
  Alcotest.(check int) "mark-init clears the count" 0 (count store);
  same "after mark-init" store;
  (* Delta catch-up: the victim held tombstones before its outage. *)
  let cfg = cfg_delta () in
  let env = Direct_env.create ~rotate:false cfg in
  let w = Direct_env.make_client env ~id:0 in
  let fixer = Direct_env.make_client env ~id:9 in
  let store = Direct_env.node_store env 3 in
  gc_writes w cfg 2;
  Alcotest.(check int) "victim tombstones before the outage" 2 (count store);
  Direct_env.crash_node env 3;
  stalled_write w ~slot:0 ~i:0 (blk cfg 'B');
  Client.recover_slot fixer ~slot:0;
  Direct_env.revive_node env 3;
  Client.recover_slot fixer ~slot:0;
  Alcotest.(check int) "caught up by delta" 1 (Client.delta_repairs_run fixer);
  Alcotest.(check int) "apply-delta clears the count" 0 (count store);
  same "after apply-delta" store

let suite =
  ( "repair",
    [
      Alcotest.test_case "catch-up ships only the missed add" `Quick
        test_catchup_ships_missed_add;
      Alcotest.test_case "catch-up commutes with concurrent adds" `Quick
        test_catchup_commutes_with_concurrent_adds;
      Alcotest.test_case "stale data member: pure epoch advance" `Quick
        test_data_member_catchup_is_pure_epoch_advance;
      Alcotest.test_case "capped log falls back to full rebuild" `Quick
        test_log_overflow_falls_back_to_full_rebuild;
      Alcotest.test_case "delta log caps, floor and tombstones" `Quick
        test_delta_log_bookkeeping;
      Alcotest.test_case "tombstone count tracks the list" `Quick
        test_tombstone_count_tracks_list;
    ] )
