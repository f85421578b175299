(* GF(2^8) bulk operations — the historical front door to what is now
   [Kernel.Table8] (word-sliced XOR, and a C split-nibble region
   multiply for scaling, like the optimized C kernels the paper
   describes in Sec 5.1 and 6.1).  The in-place [_into] family comes straight from the kernel;
   this module adds the allocating conveniences used by cold paths and
   tests. *)

include Kernel.Table8

let xor a b =
  let r = Bytes.copy a in
  xor_into ~dst:r ~src:b;
  r

let scale alpha b =
  let r = Bytes.create (Bytes.length b) in
  scale_into alpha ~dst:r ~src:b;
  r

let delta alpha ~v ~w =
  let d = Bytes.create (Bytes.length v) in
  delta_into alpha ~dst:d ~v ~w;
  d

let random st len =
  Bytes.init len (fun _ -> Char.chr (Random.State.int st 256))
