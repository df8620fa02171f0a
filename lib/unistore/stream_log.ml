(* One origin's stream log: transactions of that origin's replication
   stream, oldest first by the origin's timestamp, equal timestamps
   oldest inserted first. The order is the one every stream message
   carries, so no reader sorts, and the log drops from its old end, so a
   prune costs what it drops.

   A ring over a power-of-two array. Slots outside the live window hold
   [vacant], so nothing that left the log stays reachable from it. An
   empty log shares one empty array until its first push, and a ring
   that falls to a quarter full is halved, as [Sim.Heap] does. *)

type t = {
  origin : int;
  mutable data : Types.tx_rec array;
  mutable head : int;  (* slot of the oldest entry *)
  mutable len : int;
}

let vacant =
  Types.tx_rec ~tid:{ cl = -1; sq = -1 } ~writes:[] ~vec:[||] ~lc:0 ~origin:(-1)

let create ~origin = { origin; data = [||]; head = 0; len = 0 }
let length t = t.len
let ts t tx = Vclock.Vc.get tx.Types.tx_vec t.origin

(* The [i]-th entry, oldest first. *)
let slot t i = (t.head + i) land (Array.length t.data - 1)
let get t i = t.data.(slot t i)

let resize t cap =
  let data = Array.make cap vacant in
  for i = 0 to t.len - 1 do
    data.(i) <- get t i
  done;
  t.data <- data;
  t.head <- 0

let shrink t =
  let cap = Array.length t.data in
  if cap > 16 && t.len <= cap / 4 then resize t (cap / 2)

(* Index of the first entry above [x] ([t.len] if none is). *)
let first_above t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ts t (get t mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Append at the new end, unless [tx] is older than the newest entry (a
   backfill): then it goes after the last entry at or below its
   timestamp, and the newer ones shift up. *)
let push t tx =
  if t.len = Array.length t.data then resize t (max 16 (2 * t.len));
  let x = ts t tx in
  let at =
    if t.len = 0 || ts t (get t (t.len - 1)) <= x then t.len
    else first_above t x
  in
  for i = t.len downto at + 1 do
    t.data.(slot t i) <- get t (i - 1)
  done;
  t.data.(slot t at) <- tx;
  t.len <- t.len + 1

let rec push_list t = function
  | [] -> ()
  | tx :: rest ->
      push t tx;
      push_list t rest

let drop_through t x =
  while t.len > 0 && ts t t.data.(t.head) <= x do
    t.data.(t.head) <- vacant;
    t.head <- slot t 1;
    t.len <- t.len - 1
  done;
  shrink t

(* Entries [lo, i] consed onto [acc], oldest first. *)
let rec cons_down t lo i acc =
  if i < lo then acc else cons_down t lo (i - 1) (get t i :: acc)

let sub t lo hi = cons_down t lo (hi - 1) []

let take_through t x =
  let taken = sub t 0 (first_above t x) in
  drop_through t x;
  taken

let range t ~lo ~hi = sub t (first_above t lo) (first_above t hi)
let to_list t = sub t 0 t.len

let rec mem_vec_from t vec i =
  i < t.len && ((get t i).Types.tx_vec == vec || mem_vec_from t vec (i + 1))

let mem_vec t vec = mem_vec_from t vec 0

let remove t tid =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let tx = get t i in
    if not (Types.tid_equal tx.Types.tx_tid tid) then begin
      t.data.(slot t !kept) <- tx;
      incr kept
    end
  done;
  let removed = t.len - !kept in
  for i = !kept to t.len - 1 do
    t.data.(slot t i) <- vacant
  done;
  t.len <- !kept;
  removed > 0

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.len <- 0
