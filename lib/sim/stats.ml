type t = (string, float ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let counter_ref t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0. in
    Hashtbl.add t name r;
    r

let incr t name =
  let r = counter_ref t name in
  r := !r +. 1.

let add t name amount =
  let r = counter_ref t name in
  r := !r +. amount

let counter t name =
  match Hashtbl.find_opt t name with Some r -> !r | None -> 0.

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort compare
