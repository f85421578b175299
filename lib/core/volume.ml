type t = {
  client : Client.t;
  layout : Layout.t;
  touched : (int, unit) Hashtbl.t;
}

let create client layout =
  let cfg = Client.config client in
  if Layout.k layout <> cfg.Config.k || Layout.n layout <> cfg.Config.n then
    invalid_arg "Volume.create: layout does not match client configuration";
  { client; layout; touched = Hashtbl.create 64 }

let client t = t.client
let layout t = t.layout
let block_size t = (Client.config t.client).Config.block_size

let locate t l = Layout.stripe_of_block t.layout l

let read t l =
  let slot, i = locate t l in
  Client.read t.client ~slot ~i

let write t l v =
  let slot, i = locate t l in
  Hashtbl.replace t.touched slot ();
  Client.write t.client ~slot ~i v

let read_batch t ls =
  let results = Array.make (List.length ls) Bytes.empty in
  Client.pfor t.client
    (List.mapi (fun idx l () -> results.(idx) <- read t l) ls);
  Array.to_list results

let write_batch t entries =
  Client.pfor t.client (List.map (fun (l, v) () -> write t l v) entries)

let read_range t ~from_block ~count =
  if count < 0 then invalid_arg "Volume.read_range: negative count";
  let bs = block_size t in
  let blocks = read_batch t (List.init count (fun i -> from_block + i)) in
  let out = Bytes.create (count * bs) in
  List.iteri (fun i b -> Bytes.blit b 0 out (i * bs) bs) blocks;
  out

let write_range t ~from_block data =
  let bs = block_size t in
  if Bytes.length data mod bs <> 0 then
    invalid_arg "Volume.write_range: length not a multiple of the block size";
  let count = Bytes.length data / bs in
  write_batch t
    (List.init count (fun i -> (from_block + i, Bytes.sub data (i * bs) bs)))

let used_slots t =
  Hashtbl.fold (fun slot () acc -> slot :: acc) t.touched [] |> List.sort compare

let monitor_once t = Client.monitor_once t.client ~slots:(used_slots t)
let collect_garbage t = Client.collect_garbage t.client
