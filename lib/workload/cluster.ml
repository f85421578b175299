exception Client_crashed of int

type remap_policy = [ `Auto | `Manual ]

type t = {
  engine : Engine.t;
  net : Net.t;
  stats : Stats.t;
  cfg : Config.t;
  code : Rs_code.t;
  layout : Layout.t;
  dir : Directory.t;
  remap_policy : remap_policy;
  crashed_clients : (int, unit) Hashtbl.t;
  client_nodes : (int, Net.node) Hashtbl.t;
  metrics : Metrics.t; (* shared across every client of this cluster *)
  injector : Injector.t; (* replayable corruption-pattern source *)
  mutable event_hooks : Trace.sink; (* every on_event hook, newest first *)
}

(* Service times at a storage node beyond the generic per-message RPC
   overhead: block-touching operations pay a per-byte cost from the
   configured cost model, control operations a small constant. *)
let serve_cost cfg (req : Proto.request) =
  let costs = cfg.Config.costs in
  let per_byte = costs.Config.add_per_byte in
  let control = 0.5e-6 in
  match req with
  | Proto.Read -> control +. (per_byte *. float_of_int cfg.Config.block_size)
  | Proto.Read_checked | Proto.Get_meta ->
    (* Both read the whole block off "disk": read_checked to serve it,
       get_meta to re-digest it for the self-check verdict. *)
    control +. (per_byte *. float_of_int cfg.Config.block_size)
  | Proto.Swap { v; _ } -> control +. (per_byte *. float_of_int (Bytes.length v))
  | Proto.Add { dv; _ } -> control +. (per_byte *. float_of_int (Bytes.length dv))
  | Proto.Add_bcast { dv; _ } ->
    (* scale + add *)
    control
    +. ((per_byte +. costs.Config.delta_per_byte)
       *. float_of_int (Bytes.length dv))
  | Proto.Reconstruct { blk; _ } ->
    control +. (per_byte *. float_of_int (Bytes.length blk))
  | Proto.Delta_probe ->
    (* Self-check verdict requires re-digesting the whole block, like
       get_meta. *)
    control +. (per_byte *. float_of_int cfg.Config.block_size)
  | Proto.Get_delta _ ->
    (* Serving retained payloads off the log: charge one block's worth
       of streaming — the log is byte-capped near that order. *)
    control +. (per_byte *. float_of_int cfg.Config.block_size)
  | Proto.Apply_delta { entries; _ } ->
    control
    +. per_byte
       *. float_of_int
            (List.fold_left
               (fun a (e : Proto.delta_entry) -> a + Bytes.length e.Proto.d_dv)
               0 entries)
  | Proto.Checktid _ | Proto.Trylock _ | Proto.Setlock _ | Proto.Get_state
  | Proto.Getrecent _ | Proto.Finalize _ | Proto.Gc_old _ | Proto.Gc_recent _
  | Proto.Probe _ | Proto.Mark_init ->
    control

let storage_site i = Printf.sprintf "s%d" i
let client_site id = Printf.sprintf "c%d" id

let create ?(net_config = Net.default_config) ?(rotate = true) ?(seed = 0xEC5)
    ?(remap_policy = `Auto) ?faults cfg =
  let engine = Engine.create ~seed () in
  let stats = Stats.create () in
  let net = Net.create engine ~config:net_config stats in
  (match faults with Some f -> Net.set_faults net f | None -> ());
  let code =
    Rs_code.create ~field:cfg.Config.field ~k:cfg.Config.k ~n:cfg.Config.n ()
  in
  let layout = Layout.create ~rotate ~k:cfg.Config.k ~n:cfg.Config.n () in
  let crashed_clients = Hashtbl.create 8 in
  let client_failed id = Hashtbl.mem crashed_clients id in
  let factory ~index ~generation =
    let name = Printf.sprintf "s%d.g%d" index generation in
    let init = if generation = 0 then `Zeroed else `Garbage in
    (* The replacement keeps the site label, so per-link fault policies
       and partitions survive fail-remap. *)
    let net_node = Net.add_node net ~name in
    Net.set_site net_node (storage_site index);
    {
      Directory.net_node;
      store =
        Storage_node.create
          ~alpha_for:(Layout.alpha_oracle layout code ~node:index)
          ~client_failed ~h:(Config.h cfg)
          ~delta_log_cap:cfg.Config.repair.Config.delta_log_cap
          ~tombs_cap:cfg.Config.repair.Config.tombs_cap
          ~on_integrity_fail:(fun ~slot:_ status ->
            (* Fault-layer observer: count node-side detections of
               injected at-rest faults, split by what the self-check
               tripped on. *)
            Stats.incr stats
              (match status with
              | Checksum.Stale_epoch -> "integrity.node_stale"
              | _ -> "integrity.node_detected"))
          ~now:(fun () -> Engine.now engine)
          ~block_size:cfg.Config.block_size ~init ();
      generation;
    }
  in
  let dir = Directory.create ~n:cfg.Config.n factory in
  {
    engine;
    net;
    stats;
    cfg;
    code;
    layout;
    dir;
    remap_policy;
    crashed_clients;
    client_nodes = Hashtbl.create 8;
    metrics = Metrics.create ();
    injector = Injector.create ~seed:(seed lxor 0x1C4B5);
    event_hooks = Trace.null_sink;
  }

let engine t = t.engine
let net t = t.net
let stats t = t.stats
let config t = t.cfg
let code t = t.code
let layout t = t.layout
let directory t = t.dir
let now t = Engine.now t.engine

let client_crashed t id = Hashtbl.mem t.crashed_clients id

let crash_client t id =
  Hashtbl.replace t.crashed_clients id ();
  match Hashtbl.find_opt t.client_nodes id with
  | Some node -> Net.crash node
  | None -> ()

let crash_storage t i = Directory.crash t.dir i
let remap_storage t i = ignore (Directory.remap t.dir i)

let crash_and_remap_storage t i = ignore (Directory.crash_and_remap t.dir i)

(* ------------------------------------------------------------------ *)
(* Fault-injection controls (see Net).  Storage nodes are addressed by
   logical index, clients by id; sites are stable across remap. *)

let set_faults t f = Net.set_faults t.net f

let set_storage_link_faults t ~client ~node f =
  Net.set_link_faults t.net ~src:(client_site client) ~dst:(storage_site node)
    f;
  Net.set_link_faults t.net ~src:(storage_site node) ~dst:(client_site client)
    f

let partition_oneway t ~src ~dst = Net.partition t.net ~src ~dst
let heal_oneway t ~src ~dst = Net.heal t.net ~src ~dst
let heal_all_partitions t = Net.heal_all t.net

(* Crash at [at], restart [down_for] later.  The restart installs a
   fresh INIT instance (unless a client already tripped over the corpse
   and remapped it under the [`Auto] policy), which re-enters service
   through the INIT/monitoring path of Sec 3.10. *)
let schedule_outage t ~at ~node ~down_for =
  Engine.schedule t.engine ~at (fun () -> Directory.crash t.dir node);
  Engine.schedule t.engine ~at:(at +. down_for) (fun () ->
      let entry = Directory.lookup t.dir node in
      if not (Net.is_alive entry.Directory.net_node) then
        ignore (Directory.remap t.dir node))

(* Like [schedule_outage], but the node comes back with its state
   intact (crash-recovery rejoin): a fresh network endpoint under the
   same site is rebound over the existing store, which rejoins as an
   epoch-stale delta-repair target after the quarantine sweep. *)
let schedule_blip t ~at ~node ~down_for =
  Engine.schedule t.engine ~at (fun () -> Directory.crash t.dir node);
  Engine.schedule t.engine ~at:(at +. down_for) (fun () ->
      let entry = Directory.lookup t.dir node in
      if not (Net.is_alive entry.Directory.net_node) then begin
        let name =
          Printf.sprintf "s%d.b%d" node (Directory.generation t.dir node + 1)
        in
        let net_node = Net.add_node t.net ~name in
        Net.set_site net_node (storage_site node);
        let entry = Directory.rebind t.dir node net_node in
        let q = Storage_node.quarantine_inflight entry.Directory.store in
        for _ = 1 to q do
          Stats.incr t.stats "faults.slots_quarantined"
        done
      end)

let storage_entry t i = Directory.lookup t.dir i

(* ------------------------------------------------------------------ *)
(* At-rest integrity faults (below the protocol, above the network).
   Addressed by logical node: the fault lands on whatever instance the
   directory currently maps there. *)

let corrupt_block t ~node ~slot =
  let entry = Directory.lookup t.dir node in
  let xors = Injector.flips t.injector ~len:t.cfg.Config.block_size in
  let hit = Storage_node.corrupt_block entry.Directory.store ~slot ~xors in
  if hit then Stats.incr t.stats "faults.corrupt_injected";
  hit

type block_snapshot = Storage_node.snapshot

let snapshot_block t ~node ~slot =
  let entry = Directory.lookup t.dir node in
  Storage_node.snapshot_slot entry.Directory.store ~slot

let rollback_block t ~node ~slot snap =
  let entry = Directory.lookup t.dir node in
  let hit = Storage_node.rollback_slot entry.Directory.store ~slot snap in
  if hit then Stats.incr t.stats "faults.rollback_injected";
  hit

let client_node t ~id =
  match Hashtbl.find_opt t.client_nodes id with
  | Some n -> n
  | None ->
    let n = Net.add_node t.net ~name:(Printf.sprintf "c%d" id) in
    Hashtbl.replace t.client_nodes id n;
    n

(* One slot-addressed RPC to logical node [lnode]; under [`Auto] remap, a
   dead node is replaced once and the call retried against the fresh
   INIT instance, mirroring the paper's directory redirection. *)
let rec rpc_to_logical ?deadline t ~id ~src ~lnode ~slot req ~attempts =
  if client_crashed t id then raise (Client_crashed id);
  let entry = Directory.lookup t.dir lnode in
  let dst = entry.Directory.net_node in
  let tag = Proto.request_tag req in
  let serve () =
    Net.cpu_use dst (serve_cost t.cfg req);
    let resp = Storage_node.handle entry.Directory.store ~caller:id ~slot req in
    (resp, Proto.response_bytes resp)
  in
  let result =
    Net.rpc ?timeout:deadline t.net ~src ~dst ~tag
      ~req_bytes:(Proto.request_bytes req) ~serve
  in
  if client_crashed t id then raise (Client_crashed id);
  match result with
  | Ok resp -> Ok resp
  | Error Net.Timeout ->
    (* Lost message, not a detected failure: no remap — the client's
       retry/backoff layer decides what to do. *)
    Error `Timeout
  | Error Net.Node_down -> (
    match t.remap_policy with
    | `Manual ->
      (* Crash-without-remap window (Sec 3.5): the directory still
         points at the corpse.  From the client's seat this must be
         indistinguishable from a lost message — the request may have
         executed before the crash — so charge the RPC timer and
         surface [`Timeout]: the session layer resends the idempotent
         request, and each resend re-resolves the directory, landing on
         the replacement once the operator remaps the node.  Reliable
         [`Node_down] is reserved for failures the directory has
         positively detected (the [`Auto] policy's bounded retries). *)
      let current = Directory.lookup t.dir lnode in
      if
        attempts < 3
        && current.Directory.generation <> entry.Directory.generation
      then
        (* Remapped while we were blocked: go straight at the fresh
           instance instead of burning one of the caller's retries. *)
        rpc_to_logical ?deadline t ~id ~src ~lnode ~slot req
          ~attempts:(attempts + 1)
      else begin
        Stats.incr t.stats "rpc.timeout";
        Fiber.sleep
          (Option.value deadline ~default:(Net.config t.net).Net.rpc_timeout);
        Error `Timeout
      end
    | `Auto ->
      if attempts >= 3 then Error `Node_down
      else begin
        (* Only remap if nobody else replaced it since we looked. *)
        let current = Directory.lookup t.dir lnode in
        if not (Net.is_alive current.Directory.net_node) then
          ignore (Directory.remap t.dir lnode);
        rpc_to_logical ?deadline t ~id ~src ~lnode ~slot req
          ~attempts:(attempts + 1)
      end)

let metrics t = t.metrics

let on_event t hook =
  let older = t.event_hooks in
  t.event_hooks <-
    (fun ctx event ->
      hook ctx event;
      older ctx event)

let trace_sink t ctx event =
  Metrics.sink t.metrics ctx event;
  t.event_hooks ctx event

let transport t ~id : Transport.t =
  let src = client_node t ~id in
  let check_alive () = if client_crashed t id then raise (Client_crashed id) in
  let call ?deadline ~slot ~pos req =
    let lnode = Layout.node_of t.layout ~stripe:slot ~pos in
    rpc_to_logical ?deadline t ~id ~src ~lnode ~slot req ~attempts:0
  in
  let call_node ?deadline ~node req =
    (* Node-addressed (probes): slot field is ignored by the server. *)
    rpc_to_logical ?deadline t ~id ~src ~lnode:node ~slot:0 req ~attempts:0
  in
  let broadcast ~slot ~poss req =
    check_alive ();
    let lnodes =
      List.map (fun pos -> (pos, Layout.node_of t.layout ~stripe:slot ~pos)) poss
    in
    let entries =
      List.map (fun (pos, ln) -> (pos, Directory.lookup t.dir ln)) lnodes
    in
    let dsts = List.map (fun (_, e) -> e.Directory.net_node) entries in
    let serve dst_node =
      let pos, entry =
        List.find (fun (_, e) -> e.Directory.net_node == dst_node) entries
      in
      ignore pos;
      Net.cpu_use dst_node (serve_cost t.cfg req);
      let resp =
        Storage_node.handle entry.Directory.store ~caller:id ~slot req
      in
      (resp, Proto.response_bytes resp)
    in
    let results =
      Net.broadcast t.net ~src ~dsts ~tag:(Proto.request_tag req)
        ~req_bytes:(Proto.request_bytes req) ~serve
    in
    check_alive ();
    List.map2
      (fun (pos, _) (_, r) ->
        ( pos,
          match r with
          | Ok resp -> Ok resp
          | Error Net.Node_down -> Error `Node_down
          | Error Net.Timeout -> Error `Timeout ))
      lnodes results
  in
  let pfor thunks =
    check_alive ();
    let crashed = ref false in
    let guard f () = try f () with Client_crashed _ -> crashed := true in
    ignore (Fiber.fork_all (List.map guard thunks));
    if !crashed then raise (Client_crashed id)
  in
  let sleep d =
    check_alive ();
    Fiber.sleep d;
    check_alive ()
  in
  (module struct
    let client_id = id
    let call = call
    let call_node = call_node
    let broadcast = Some broadcast
    let pfor = pfor
    let sleep = sleep
    let now () = Engine.now t.engine

    let compute seconds =
      check_alive ();
      Net.cpu_use src seconds
  end : Transport.S)

let make_client t ~id =
  Client.of_transport ~sink:(trace_sink t)
    ~locate:(fun ~slot ~pos -> Layout.node_of t.layout ~stripe:slot ~pos)
    t.cfg t.code (transport t ~id)

let make_volume t ~id =
  let client = make_client t ~id in
  Volume.create client t.layout

let spawn t f = Fiber.spawn t.engine f

let run ?until t =
  let rec go () =
    match Engine.run ?until t.engine with
    | () -> ()
    | exception Client_crashed _ -> go ()
  in
  go ()
