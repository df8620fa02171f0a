(* Per-key operation logs (opLog in the pseudocode, §5.1).

   Each replica keeps, for every key it stores, the log of update
   operations performed on the key, tagged with the commit vector of the
   transaction that performed each one. Reads materialise the version of
   a key within a causally consistent snapshot: the state obtained by
   applying exactly the logged operations whose commit vector is below
   the snapshot vector.

   Entries are kept sorted by descending CRDT tag (Lamport clock order).
   For LWW registers — the type the paper's proof specialises to (§A) —
   this makes a snapshot read O(distance from the newest version), since
   the first in-snapshot entry is the last writer. *)

type entry = { op : Crdt.op; vec : Vclock.Vc.t; tag : Crdt.tag }

(* Entries and a key's list are immutable and may be shared: a write's
   entry is built once, at commit, and every replica holds that entry;
   the initial version t0 is one list installed at every replica, and a
   snapshot holds each key's list by reference. A new entry conses onto
   it. *)
type t = {
  table : (Keyspace.key, entry list) Hashtbl.t;
  mutable appended : int;
  mutable live : int;  (* entries held: [append], [install], [clear] *)
}

let create () = { table = Hashtbl.create 1024; appended = 0; live = 0 }

(* Common case: the new entry has the highest tag and goes first. *)
let rec insert e = function
  | [] -> [ e ]
  | e0 :: _ as rest when Crdt.tag_compare e.tag e0.tag >= 0 -> e :: rest
  | e0 :: rest -> e0 :: insert e rest

let append t key e =
  t.appended <- t.appended + 1;
  t.live <- t.live + 1;
  match Hashtbl.find t.table key with
  | entries -> Hashtbl.replace t.table key (insert e entries)
  | exception Not_found -> Hashtbl.replace t.table key [ e ]

let install t key entries =
  if Hashtbl.mem t.table key then invalid_arg "Oplog.install: key has versions";
  let n = List.length entries in
  t.appended <- t.appended + n;
  t.live <- t.live + n;
  Hashtbl.replace t.table key entries

let entries t key =
  match Hashtbl.find_opt t.table key with None -> [] | Some l -> l

(* Discard every version (crash-recovery wipe before a snapshot install).
   The lifetime [appended] counter is kept: it counts work done, not
   state held. *)
let clear t =
  Hashtbl.reset t.table;
  t.live <- 0

let version_count t key = List.length (entries t key)
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table []
let appended t = t.appended
let length t = t.live

(* One table pass filling the arrays from the end: the order of
   [keys]. *)
let snapshot t =
  let n = Hashtbl.length t.table in
  let keys = Array.make n 0 and lists = Array.make n [] in
  let i = ref n in
  Hashtbl.iter
    (fun k l ->
      decr i;
      keys.(!i) <- k;
      lists.(!i) <- l)
    t.table;
  (keys, lists)

(* Materialise [key] within [snap]: value plus the highest Lamport clock
   among contributing operations (returned to the client to advance its
   Lamport clock, Algorithm A3 line 5). *)
let read t key ~snap =
  let rec scan state max_lc = function
    | [] -> (state, max_lc)
    | e :: rest ->
        if Vclock.Vc.leq e.vec snap then begin
          let max_lc = max max_lc e.tag.Crdt.lc in
          match e.op with
          | Crdt.Reg_write _ when state == Crdt.empty ->
              (* Entries are in descending tag order, so for a register
                 the first in-snapshot entry is the last writer. *)
              (Crdt.apply state e.op ~tag:e.tag ~vec:e.vec, max_lc)
          | _ ->
              scan (Crdt.apply state e.op ~tag:e.tag ~vec:e.vec) max_lc rest
        end
        else scan state max_lc rest
  in
  let state, max_lc = scan Crdt.empty (-1) (entries t key) in
  let lc = if max_lc < 0 then None else Some max_lc in
  (Crdt.read state, lc)
