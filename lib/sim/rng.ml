(* Deterministic splittable PRNG (splitmix64 core).

   We avoid [Stdlib.Random] so that simulations are reproducible across
   OCaml versions and so that independent components (each client, each
   replica) can draw from independent streams derived from one seed. *)

(* The state is 8 bytes read and written in place: a mutable [int64]
   field would box a fresh value on every draw, whereas the compiler
   keeps the intermediate [int64]s of an inlined draw unboxed, so [int]
   and [bool] allocate nothing and [float] only the box of the float it
   returns. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Derive an independent stream: hash the parent state with a stream id. *)
let split t ~id =
  let z = next_int64 t in
  of_state (Int64.add z (Int64.mul (Int64.of_int (id + 1)) 0xD6E8FEB86659FD93L))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits, as in standard doubles-from-bits constructions *)
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponential inter-arrival sampling for Poisson processes. *)
let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

(* Sample an index according to an array of non-negative weights. *)
let weighted t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.weighted: weights sum to zero";
  let x = float t total in
  let n = Array.length weights in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
