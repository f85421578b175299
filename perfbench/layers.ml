(* Isolated layer rows for the traced run: each layer's public entry
   point timed alone at the workload's block size.  The pure coding and
   digest functions are timed with bechamel (OLS estimate of ns per
   call); [Storage_node.handle] keeps per-slot protocol lists, so it is
   timed in batches over fresh slots with the lists collected between
   batches, the state a client's GC cadence keeps a node in. *)

open Bechamel

let bechamel_ns ~name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:400 ~quota:(Time.second 0.2) ~stabilize:false
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let analysis =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.fold
    (fun _ ols acc ->
      match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> acc)
    analysis 0.

let random_block st len =
  Bytes.init len (fun _ -> Char.chr (Random.State.int st 256))

let tid seq = { Proto.seq; blk = 0; client = 1 }

(* Median per-request time of [batches] timed batches, each issuing
   [req slot seq] on [slots] distinct slots; [between] runs untimed after
   every batch. *)
let batch_us ~slots ~batches ~req ~between node =
  let seq = ref 0 in
  let per_batch =
    List.init batches (fun _ ->
        let base = !seq in
        let t0 = Meter.now_ns () in
        for s = 0 to slots - 1 do
          ignore (Storage_node.handle node ~caller:1 ~slot:s (req s (base + s)))
        done;
        let t1 = Meter.now_ns () in
        seq := base + slots;
        between ~base;
        (t1 -. t0) /. float_of_int slots /. 1e3)
  in
  Meter.median per_batch

let storage_rows ~block_size st =
  let slots = 64 and batches = 40 in
  let node () =
    Storage_node.create ~now:(fun () -> 0.) ~block_size ~init:`Zeroed ()
  in
  let collect node ~base =
    for s = 0 to slots - 1 do
      let t = [ tid (base + s) ] in
      ignore (Storage_node.handle node ~caller:1 ~slot:s (Proto.Gc_recent t));
      ignore (Storage_node.handle node ~caller:1 ~slot:s (Proto.Gc_old t))
    done
  in
  let payloads = Array.init slots (fun _ -> random_block st block_size) in
  let swap_node = node () in
  let swap_us =
    batch_us ~slots ~batches swap_node ~between:(collect swap_node)
      ~req:(fun s seq -> Proto.Swap { v = payloads.(s); ntid = tid seq })
  in
  let add_node = node () in
  let add_us =
    batch_us ~slots ~batches add_node ~between:(collect add_node)
      ~req:(fun s seq ->
        Proto.Add { dv = payloads.(s); ntid = tid seq; otid = None; epoch = 0 })
  in
  let read_node = node () in
  let read_us =
    batch_us ~slots ~batches read_node
      ~between:(fun ~base:_ -> ())
      ~req:(fun _ _ -> Proto.Read)
  in
  (swap_us, add_us, read_us)

(* Every isolated row, as (name, value, unit). *)
let rows ~block_size ~k ~n =
  let st = Random.State.make [| 0x1a7e5; block_size |] in
  let code = Rs_code.create ~k ~n () in
  let b = random_block st block_size in
  let diff = random_block st block_size in
  let dst = Bytes.create block_size in
  let digest_ns =
    bechamel_ns ~name:"digest" (fun () -> ignore (Checksum.digest_bytes b))
  in
  let delta_ns =
    bechamel_ns ~name:"delta" (fun () ->
        Rs_code.update_delta_into code ~j:k ~i:0 ~dst ~diff)
  in
  let data = Array.init k (fun _ -> random_block st block_size) in
  let stripe = Rs_code.stripe code data in
  (* Data block 0 missing: the decode has to use a redundant block. *)
  let avail = List.init k (fun j -> (j + 1, stripe.(j + 1))) in
  let decode_ns =
    bechamel_ns ~name:"decode" (fun () -> ignore (Rs_code.decode code avail))
  in
  let (module K : Kernel.S) = Kernel.for_h 8 in
  let w = random_block st block_size in
  let xor_ns = bechamel_ns ~name:"xor" (fun () -> K.xor_into ~dst ~src:b) in
  let kdelta_ns =
    bechamel_ns ~name:"kdelta" (fun () -> K.delta_into 0x53 ~dst ~v:b ~w)
  in
  let mb_per_s ns = Meter.ratio (float_of_int block_size *. 1e3) ns in
  let swap_us, add_us, read_us = storage_rows ~block_size st in
  [
    ("integrity.digest_us", digest_ns /. 1e3, "us");
    ("rs.delta_us", delta_ns /. 1e3, "us");
    ("rs.decode_us", decode_ns /. 1e3, "us");
    ("gf.xor_mb_per_s", mb_per_s xor_ns, "MB/s");
    ("gf.delta_mb_per_s", mb_per_s kdelta_ns, "MB/s");
    ("storage.swap_us", swap_us, "us");
    ("storage.add_us", add_us, "us");
    ("storage.read_us", read_us, "us");
  ]
