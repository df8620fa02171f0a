(* Vector timestamps with one entry per data center plus a [strong] entry,
   as used throughout the UniStore protocol (§5.1, §6.1 of the paper).

   A vector over D data centers has physical length D + 1; index D holds
   the strong entry. Vectors serve three roles in the protocol — commit
   vectors, snapshot vectors, and replication-progress vectors — all with
   the same representation but different comparison conventions, provided
   here as distinct functions. *)

type t = int array

let strong_index v = Array.length v - 1

let create ~dcs = Array.make (dcs + 1) 0

let of_array a = Array.copy a
let copy v = Array.copy v
let dcs v = Array.length v - 1

let get v i = v.(i)
let set v i x = v.(i) <- x
let strong v = v.(strong_index v)
let set_strong v x = v.(strong_index v) <- x

let check_compat v1 v2 =
  if Array.length v1 <> Array.length v2 then
    invalid_arg "Vc: incompatible vector lengths"

(* Pointwise <= over every entry including [strong]. *)
let leq v1 v2 =
  check_compat v1 v2;
  let n = Array.length v1 in
  let rec go i = i = n || (v1.(i) <= v2.(i) && go (i + 1)) in
  go 0

(* Strict order: pointwise <= and strictly smaller somewhere. *)
let lt v1 v2 = leq v1 v2 && not (leq v2 v1)

let equal v1 v2 =
  check_compat v1 v2;
  let n = Array.length v1 in
  let rec go i = i = n || (v1.(i) = v2.(i) && go (i + 1)) in
  go 0

(* Pointwise <= restricted to the per-DC entries (ignoring [strong]);
   used where the causal protocol compares snapshots before strong
   transactions enter the picture. *)
let leq_dcs v1 v2 =
  check_compat v1 v2;
  let n = Array.length v1 - 1 in
  let rec go i = i = n || (v1.(i) <= v2.(i) && go (i + 1)) in
  go 0

(* Pointwise join (least upper bound). *)
let join v1 v2 =
  check_compat v1 v2;
  Array.init (Array.length v1) (fun i -> max v1.(i) v2.(i))

(* Pointwise meet (greatest lower bound). *)
let meet v1 v2 =
  check_compat v1 v2;
  Array.init (Array.length v1) (fun i -> min v1.(i) v2.(i))

(* In-place merge: v1 := join v1 v2. *)
let merge_into v1 v2 =
  check_compat v1 v2;
  for i = 0 to Array.length v1 - 1 do
    if v2.(i) > v1.(i) then v1.(i) <- v2.(i)
  done

(* In-place meet: v1 := meet v1 v2. *)
let meet_into v1 v2 =
  check_compat v1 v2;
  for i = 0 to Array.length v1 - 1 do
    if v2.(i) < v1.(i) then v1.(i) <- v2.(i)
  done

(* v.(i) := max v.(i) x *)
let bump v i x = if x > v.(i) then v.(i) <- x

let bump_strong v x =
  let i = strong_index v in
  if x > v.(i) then v.(i) <- x

(* The [n]-th largest of entry [i] over the rows other than [skip],
   ties counted: the largest value that at least [n] of those rows
   reach. Quadratic in the row count (a DC count, at most a handful)
   and allocation-free, unlike sorting a fresh list. *)
let nth_largest rows ~skip i n =
  let rows_n = Array.length rows in
  if n < 1 || n >= rows_n then invalid_arg "Vc.nth_largest: n out of range";
  let best = ref min_int in
  for h = 0 to rows_n - 1 do
    let v = rows.(h).(i) in
    if h <> skip && v > !best then begin
      let reach = ref 0 in
      for h' = 0 to rows_n - 1 do
        if h' <> skip && rows.(h').(i) >= v then incr reach
      done;
      if !reach >= n then best := v
    end
  done;
  !best

let pp ppf v =
  let n = Array.length v in
  Fmt.pf ppf "[";
  for i = 0 to n - 2 do
    if i > 0 then Fmt.pf ppf " ";
    Fmt.pf ppf "%d" v.(i)
  done;
  Fmt.pf ppf " | s:%d]" v.(n - 1)

let to_string v = Fmt.str "%a" pp v
