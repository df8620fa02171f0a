(* Identifiers and transaction records shared across the protocol. *)

(* Transaction identifier: issuing client plus a per-client sequence
   number (unique across the system, Algorithm A2 line 3). *)
type tid = { cl : int; sq : int }

let tid_pp ppf t = Fmt.pf ppf "t%d.%d" t.cl t.sq
let tid_equal a b = a.cl = b.cl && a.sq = b.sq

(* Description of one operation for the conflict relation ⋈ (§3): the key
   it touches, an application-assigned operation class, and whether it is
   an update. The read set rset of Algorithm A2 is a list of these. *)
type opdesc = { key : Store.Keyspace.key; cls : int; write : bool }

(* Default operation class when the application does not declare one. *)
let cls_default = 0

(* One write of a committed transaction as stored in write buffers,
   REPLICATE messages and certification payloads. *)
type write = { wkey : Store.Keyspace.key; wop : Crdt.op; wcls : int }

(* Write buffer and operation descriptions of a transaction, keyed by
   partition (wbuff[tid][l] in the pseudocode). Strong transactions carry
   the full maps to every partition leader so that certification state
   survives leader recovery (Algorithm A10 re-certifies from it). *)
type wbuff = (int * write list) list

type opsmap = (int * opdesc list) list

let opsmap_find (o : opsmap) part =
  match List.assoc_opt part o with None -> [] | Some l -> l

(* A committed update transaction as it travels between replicas
   (committedCausal entries and REPLICATE payloads, Algorithm A4). Its
   opLog entries — one per write, in [tx_writes] order, sharing the
   commit vector and one tag — are built once, by [tx_rec], where the
   commit vector is bound: every replica, WAL record and snapshot holds
   these same entries. They are filled at construction, never later:
   the WAL checksums a record's payload at append and again at
   recovery, so a payload that changed in between would read back as
   torn. *)
type tx_rec = {
  tx_tid : tid;
  tx_writes : write list;
  tx_vec : Vclock.Vc.t;  (* commit vector *)
  tx_lc : int;  (* Lamport clock of the commit *)
  tx_entries : Store.Oplog.entry list;
}

let tx_rec ~tid ~writes ~vec ~lc ~origin =
  let entries =
    match writes with
    | [] -> []
    | _ ->
        let tag = { Crdt.lc; origin } in
        List.map (fun w -> { Store.Oplog.op = w.wop; vec; tag }) writes
  in
  { tx_tid = tid; tx_writes = writes; tx_vec = vec; tx_lc = lc;
    tx_entries = entries }

let iter_writes f tx = List.iter2 f tx.tx_writes tx.tx_entries

let filter_writes keep tx =
  let writes, entries =
    List.fold_right2
      (fun w e ((ws, es) as acc) -> if keep w then (w :: ws, e :: es) else acc)
      tx.tx_writes tx.tx_entries ([], [])
  in
  { tx with tx_writes = writes; tx_entries = entries }
