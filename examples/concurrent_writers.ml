(* The paper's motivating concurrency scenario (Sec 3.4, Fig 3C): two
   clients update *different* data blocks of the *same* stripe at the
   same time.  The erasure code couples their updates on the redundant
   nodes, yet the swap/add protocol keeps the stripe consistent with no
   locks and no client coordination.

   Run with:  dune exec examples/concurrent_writers.exe *)

let () =
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:2 ~n:4 ()
  in
  let cluster = Cluster.create cfg in
  Printf.printf
    "2-of-4 code: stripe is (a, b, a+b, a-b) over GF(2^8).\n\
     Client 1 changes a->c while client 2 changes b->d, concurrently.\n\n";

  (* Seed the stripe with a and b. *)
  let setup = Cluster.make_client cluster ~id:10 in
  Cluster.spawn cluster (fun () ->
      Client.write setup ~slot:0 ~i:0 (Bytes.make 1024 'a');
      Client.write setup ~slot:0 ~i:1 (Bytes.make 1024 'b'));
  Cluster.run cluster;

  (* Two clients race on the coupled blocks. *)
  let c1 = Cluster.make_client cluster ~id:1 in
  let c2 = Cluster.make_client cluster ~id:2 in
  Cluster.spawn cluster (fun () ->
      Printf.printf "t=%.0f us  client 1: WRITE(0, 'c') begins\n"
        (1e6 *. Fiber.now ());
      Client.write c1 ~slot:0 ~i:0 (Bytes.make 1024 'c');
      Printf.printf "t=%.0f us  client 1: WRITE completed\n" (1e6 *. Fiber.now ()));
  Cluster.spawn cluster (fun () ->
      Printf.printf "t=%.0f us  client 2: WRITE(1, 'd') begins\n"
        (1e6 *. Fiber.now ());
      Client.write c2 ~slot:0 ~i:1 (Bytes.make 1024 'd');
      Printf.printf "t=%.0f us  client 2: WRITE completed\n" (1e6 *. Fiber.now ()));
  Cluster.run cluster;

  (* White-box check: the four storage nodes hold (c, d, c+d, c-d). *)
  let layout = Cluster.layout cluster in
  let stripe =
    Array.init 4 (fun pos ->
        let node = Layout.node_of layout ~stripe:0 ~pos in
        Storage_node.peek_block
          (Cluster.storage_entry cluster node).Directory.store ~slot:0)
  in
  let consistent = Rs_code.verify_stripe (Cluster.code cluster) stripe in
  Printf.printf "\nstripe verifies against the erasure code: %b\n" consistent;

  (* And decoding from the two *redundant* blocks alone recovers c,d --
     proof the parity absorbed both concurrent updates. *)
  let decoded =
    Rs_code.decode (Cluster.code cluster) [ (2, stripe.(2)); (3, stripe.(3)) ]
  in
  Printf.printf "decode from redundant blocks only: data0=%c data1=%c\n"
    (Bytes.get decoded.(0) 0)
    (Bytes.get decoded.(1) 0);
  let m = Cluster.metrics cluster in
  Printf.printf "locks taken: 0; recoveries: %d\n"
    (Metrics.counter m "op.recovery.count"
    + Metrics.counter m "op.recovery.failed")
