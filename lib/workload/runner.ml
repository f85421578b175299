type result = Report.run = {
  duration : float;
  clients : int;
  outstanding : int;
  read_ops : int;
  write_ops : int;
  read_mbs : float;
  write_mbs : float;
  total_mbs : float;
  read_latency : float;
  write_latency : float;
  msgs : float;
  recoveries : float;
  rpc_retries : int;
  rpc_giveups : int;
  write_giveups : int;
  recovery_phases : (string * int) list;
}

type counters = {
  mutable c_read_ops : int;
  mutable c_write_ops : int;
  mutable c_read_lat : float;
  mutable c_write_lat : float;
  (* window counters for the sampler *)
  mutable w_read_ops : int;
  mutable w_write_ops : int;
  (* failure accounting (Report.failures) *)
  mutable abandoned : int;
  mutable stalls : int;
}

let next_tag = ref 1

let fresh_tag () =
  incr next_tag;
  !next_tag

let run ?(outstanding = 8) ?(warmup = 0.05) ?(events = []) ?faults ?on_sample
    ?(sample_every = 1.0) ?(gc_every = Some 0.05) ?check ?failures ~cluster
    ~clients ~duration ~workload () =
  (match faults with Some f -> Cluster.set_faults cluster f | None -> ());
  let cfg = Cluster.config cluster in
  let block_size = cfg.Config.block_size in
  let start = Cluster.now cluster in
  let measure_from = start +. warmup in
  let t_end = measure_from +. duration in
  let ctr =
    {
      c_read_ops = 0;
      c_write_ops = 0;
      c_read_lat = 0.;
      c_write_lat = 0.;
      w_read_ops = 0;
      w_write_ops = 0;
      abandoned = 0;
      stalls = 0;
    }
  in
  let in_window t = t >= measure_from && t <= t_end in
  (* Scheduled fault-injection events, relative to run start. *)
  List.iter
    (fun (at, action) ->
      Engine.schedule (Cluster.engine cluster) ~at:(start +. at) (fun () ->
          action cluster))
    events;
  (* Per-client volumes and request fibers. *)
  for c = 0 to clients - 1 do
    let volume = Cluster.make_volume cluster ~id:c in
    let gen = Generator.create ~seed:(0x1234 + (c * 97)) workload in
    let do_read block =
      let t0 = Cluster.now cluster in
      match Volume.read volume block with
      | v ->
        let t1 = Cluster.now cluster in
        (match check with
        | Some ck ->
          Checker.record_read ck ~block ~tag:(Checker.tag_of_block v) ~start:t0
            ~finish:t1
        | None -> ());
        if in_window t1 then begin
          ctr.c_read_ops <- ctr.c_read_ops + 1;
          ctr.c_read_lat <- ctr.c_read_lat +. (t1 -. t0);
          ctr.w_read_ops <- ctr.w_read_ops + 1
        end
      | exception Client.Stuck _ ->
        (* Retry limit drained (an outage outlasting the budget): count
           and move on — the workload must outlive the fault schedule. *)
        ctr.stalls <- ctr.stalls + 1
    in
    let do_write block =
      let t0 = Cluster.now cluster in
      match check with
      | Some ck -> (
        let tag = fresh_tag () in
        let v = Checker.tag_block ~size:block_size ~tag in
        try
          Volume.write volume block v;
          let t1 = Cluster.now cluster in
          Checker.record_write ck ~block ~tag ~start:t0 ~finish:(Some t1);
          if in_window t1 then begin
            ctr.c_write_ops <- ctr.c_write_ops + 1;
            ctr.c_write_lat <- ctr.c_write_lat +. (t1 -. t0);
            ctr.w_write_ops <- ctr.w_write_ops + 1
          end
        with
        | Cluster.Client_crashed _ as e ->
          Checker.record_write ck ~block ~tag ~start:t0 ~finish:None;
          raise e
        | Client.Write_abandoned _ ->
          (* Ambiguous swap timeout: the value may or may not become
             visible — exactly an unfinished write for the checker. *)
          ctr.abandoned <- ctr.abandoned + 1;
          Checker.record_write ck ~block ~tag ~start:t0 ~finish:None
        | Client.Stuck _ ->
          (* Retry limit drained: the write may or may not land —
             unfinished for the checker, and counted. *)
          ctr.stalls <- ctr.stalls + 1;
          Checker.record_write ck ~block ~tag ~start:t0 ~finish:None)
      | None -> (
        let v = Bytes.make block_size (Char.chr (block land 0xff)) in
        try
          Volume.write volume block v;
          let t1 = Cluster.now cluster in
          if in_window t1 then begin
            ctr.c_write_ops <- ctr.c_write_ops + 1;
            ctr.c_write_lat <- ctr.c_write_lat +. (t1 -. t0);
            ctr.w_write_ops <- ctr.w_write_ops + 1
          end
        with
        | Client.Write_abandoned _ -> ctr.abandoned <- ctr.abandoned + 1
        | Client.Stuck _ -> ctr.stalls <- ctr.stalls + 1)
    in
    let request_loop () =
      let rec go () =
        if Cluster.now cluster < t_end && not (Cluster.client_crashed cluster c)
        then begin
          let { Generator.op; block } = Generator.next gen in
          (match op with
          | Generator.Op_read -> do_read block
          | Generator.Op_write -> do_write block);
          go ()
        end
      in
      try go () with Cluster.Client_crashed _ -> ()
    in
    for _ = 1 to outstanding do
      Cluster.spawn cluster request_loop
    done;
    (* Per-client garbage-collection task (Fig 7). *)
    match gc_every with
    | None -> ()
    | Some period ->
      Cluster.spawn cluster (fun () ->
          let rec gc_loop () =
            if
              Cluster.now cluster < t_end
              && not (Cluster.client_crashed cluster c)
            then begin
              Fiber.sleep period;
              (try Volume.collect_garbage volume
               with Cluster.Client_crashed _ -> ());
              gc_loop ()
            end
          in
          gc_loop ())
  done;
  (* Windowed throughput sampler for timeline figures. *)
  (match on_sample with
  | None -> ()
  | Some f ->
    Cluster.spawn cluster (fun () ->
        let rec sample () =
          if Cluster.now cluster < t_end then begin
            Fiber.sleep sample_every;
            let mb ops =
              float_of_int (ops * block_size) /. 1.0e6 /. sample_every
            in
            (* Skip the trailing partial window. *)
            if Cluster.now cluster <= t_end then
              f (Cluster.now cluster) ~read_mbs:(mb ctr.w_read_ops)
                ~write_mbs:(mb ctr.w_write_ops);
            ctr.w_read_ops <- 0;
            ctr.w_write_ops <- 0;
            sample ()
          end
        in
        sample ()));
  let metrics = Cluster.metrics cluster and stats = Cluster.stats cluster in
  let mark = Report.mark metrics stats in
  Cluster.run cluster;
  let run, failed =
    Report.measure mark metrics stats ~duration ~clients ~outstanding
      ~block_size ~read_ops:ctr.c_read_ops ~write_ops:ctr.c_write_ops
      ~read_lat:ctr.c_read_lat ~write_lat:ctr.c_write_lat
      ~abandoned:ctr.abandoned ~stuck:ctr.stalls
  in
  Option.iter (fun out -> out := failed) failures;
  run

let print_result label r = Report.print_run ~label r
