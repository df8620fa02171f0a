(* The decided log is indexed so that the check of Algorithm A8 runs in
   time proportional to the transaction's own footprint, not to the
   history: committed transactions are indexed by the keys they
   touched. *)

module Vc = Vclock.Vc

(* A delivery queue entry. The queue pops in ascending strong
   timestamp, and among equal timestamps the entry queued last first
   ([n] is a per-member queueing counter), so queueing and delivery cost
   a logarithm of the queue's length, not the length: the queue grows
   long exactly when delivery stalls, e.g. behind an orphaned prepared
   entry during a partition. *)
type queued = { q_ts : int; q_n : int; q_d : Msg.decided_strong }

let queued_before a b = a.q_ts < b.q_ts || (a.q_ts = b.q_ts && a.q_n > b.q_n)

type t = {
  conflict : Config.conflict_spec;
  ops_slice : Types.opsmap -> Types.opdesc list;
  decided : (Types.tid, Msg.decided_strong) Hashtbl.t;
  (* committed transactions indexed by the keys they touched at this
     group, for the per-key conflict check *)
  decided_by_key : (Store.Keyspace.key, Msg.decided_strong list ref) Hashtbl.t;
  (* committed but not yet delivered, in delivery order *)
  undelivered : queued Sim.Heap.t;
  mutable queued : int;  (* entries ever queued: the tie-break key *)
  (* strong timestamp up to which decided transactions may have been
     garbage-collected: snapshots below it can no longer be certified
     soundly *)
  mutable pruned_below : int;
  (* join of the garbage-collected transactions' commit vectors: a
     snapshot that does not cover it may miss one of them *)
  pruned_join : Vc.t;
  mutable last_delivered : int;
}

let create ~conflict ~ops_slice ~dcs =
  {
    conflict;
    ops_slice;
    decided = Hashtbl.create 256;
    decided_by_key = Hashtbl.create 256;
    undelivered = Sim.Heap.create ~less:queued_before;
    queued = 0;
    pruned_below = 0;
    pruned_join = Vc.create ~dcs;
    last_delivered = 0;
  }

let find t tid = Hashtbl.find_opt t.decided tid
let mem t tid = Hashtbl.mem t.decided tid
let count t = Hashtbl.length t.decided
let to_list t = Hashtbl.fold (fun _ d acc -> d :: acc) t.decided []
let last_delivered t = t.last_delivered

let max_commit_ts t =
  Hashtbl.fold
    (fun _ (d : Msg.decided_strong) acc ->
      if d.ds_dec then max acc (Vc.strong d.ds_record.tx_vec) else acc)
    t.decided 0

let add t (d : Msg.decided_strong) =
  let fresh = not (Hashtbl.mem t.decided d.ds_tx.st_tid) in
  if fresh then begin
    Hashtbl.replace t.decided d.ds_tx.st_tid d;
    if d.ds_dec then begin
      let ops = t.ops_slice d.ds_tx.st_ops in
      List.iter
        (fun (o : Types.opdesc) ->
          let cell =
            match Hashtbl.find_opt t.decided_by_key o.key with
            | Some cell -> cell
            | None ->
                let cell = ref [] in
                Hashtbl.replace t.decided_by_key o.key cell;
                cell
          in
          if not (List.memq d !cell) then cell := d :: !cell)
        ops;
      let ts = Vc.strong d.ds_record.tx_vec in
      if ts > t.last_delivered then begin
        t.queued <- t.queued + 1;
        Sim.Heap.push t.undelivered { q_ts = ts; q_n = t.queued; q_d = d }
      end
    end
  end;
  fresh

(* A snapshot whose strong entry is below the prune floor, or that
   misses an entry of a pruned transaction's commit vector, may miss
   conflicting committed transactions that were already garbage-collected:
   it is refused (the coordinator retries with a fresher snapshot). A
   transaction with no operations at this group (a dummy heartbeat)
   conflicts with nothing, so any snapshot certifies it. *)
let check t ~ops ~snap ~lc =
  if ops = [] then (true, lc)
  else
    (* an entry conflicting on several keys is folded in once per key:
       both updates are idempotent *)
    let vote = ref true and lc = ref lc in
    List.iter
      (fun (o : Types.opdesc) ->
        match Hashtbl.find_opt t.decided_by_key o.key with
        | None -> ()
        | Some cell ->
            List.iter
              (fun (d : Msg.decided_strong) ->
                if
                  List.exists
                    (fun (o' : Types.opdesc) ->
                      o'.key = o.key && Config.ops_conflict t.conflict o o')
                    (t.ops_slice d.ds_tx.st_ops)
                then begin
                  let r = d.ds_record in
                  if not (Vc.leq r.tx_vec snap) then vote := false;
                  if !lc <= r.tx_lc then lc := r.tx_lc + 1
                end)
              !cell)
      ops;
    ( !vote && Vc.strong snap >= t.pruned_below && Vc.leq t.pruned_join snap,
      !lc )

(* Dequeue every entry at or below [upto], in delivery order, with the
   highest timestamp dequeued ([last] if none). What is delivered is the
   decision's own record, the one every member shares. *)
let rec dequeue t ~upto acc last =
  let h = t.undelivered in
  if Sim.Heap.is_empty h || (Sim.Heap.top h).q_ts > upto then (List.rev acc, last)
  else
    let q = Sim.Heap.pop h in
    dequeue t ~upto (q.q_d.ds_record :: acc) q.q_ts

let deliver_upto t ts =
  t.last_delivered <- ts;
  fst (dequeue t ~upto:ts [] ts)

let deliver_below t ~gate =
  match dequeue t ~upto:(gate - 1) [] 0 with
  | [], _ -> None
  | batch, ts ->
      t.last_delivered <- ts;
      Some (ts, batch)

(* Snapshots lag the delivery frontier by at most the WAN round trip
   plus a few broadcast periods, which this margin dominates: a
   committed transaction this far below every member's frontier can no
   longer cause an abort or a Lamport bump. *)
let prune_margin_us = 1_500_000

(* The strong entry alone does not say a snapshot contains a pruned
   entry: under a partition it keeps advancing while an entry of a
   cut-off DC stays behind the decided vector. [covered] checks the
   whole vector against the snapshots served from now on; [pruned_join]
   guards the ones served before, which a re-submission after a
   failover certifies late. *)
let prune ?(covered = fun _ -> true) t ~floor =
  let keep_after = floor - prune_margin_us in
  if keep_after > 0 then begin
    if keep_after > t.pruned_below then t.pruned_below <- keep_after;
    Hashtbl.filter_map_inplace
      (fun _ (d : Msg.decided_strong) ->
        let vec = d.ds_record.tx_vec in
        if Vc.strong vec <= keep_after && covered vec then begin
          Vc.merge_into t.pruned_join vec;
          List.iter
            (fun (o : Types.opdesc) ->
              match Hashtbl.find_opt t.decided_by_key o.key with
              | None -> ()
              | Some cell ->
                  cell := List.filter (fun d' -> not (d' == d)) !cell;
                  if !cell = [] then Hashtbl.remove t.decided_by_key o.key)
            (t.ops_slice d.ds_tx.st_ops);
          None
        end
        else Some d)
      t.decided
  end

let reset ?delivered t =
  Hashtbl.reset t.decided;
  Hashtbl.reset t.decided_by_key;
  Sim.Heap.clear t.undelivered;
  Option.iter
    (fun d ->
      t.last_delivered <- d;
      t.pruned_below <- max t.pruned_below d)
    delivered
