(* Offline PoR-consistency checker (§B of the paper).

   Takes the full history recorded by [History] (every committed
   transaction with its snapshot vector, commit vector, reads and writes)
   and verifies the axioms of Partial Order-Restrictions consistency:

   - CausalityPreservation: commit vectors respect the session order and
     dominate snapshot vectors;
   - ReturnValueConsistency: every read returns exactly the value obtained
     by applying the writes of the transactions contained in the reader's
     snapshot (plus the reader's own earlier writes);
   - ConflictOrdering: any two conflicting committed strong transactions
     are ordered — the earlier one (by strong timestamp) is contained in
     the later one's snapshot;
   - strong-timestamp uniqueness for conflicting strong transactions
     (Property 5).

   Eventual Visibility is a liveness property over replica state and is
   checked separately by [System.check_convergence]. *)

module Vc = Vclock.Vc

type result = {
  violations : string list;
  transactions : int;
  reads_checked : int;
  conflicts_checked : int;
}

let ok r = r.violations = []

(* ------------------------------------------------------------------ *)
(* Session guarantees.                                                   *)

let check_sessions txns errors =
  let by_client = Hashtbl.create 64 in
  List.iter
    (fun (t : History.txn_record) ->
      let cur =
        match Hashtbl.find_opt by_client t.h_client with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace by_client t.h_client (t :: cur))
    txns;
  Hashtbl.iter
    (fun client txns_rev ->
      (* records were appended in commit order; restore it *)
      let in_order = List.rev txns_rev in
      let rec go = function
        | t1 :: (t2 :: _ as rest) ->
            if not (Vc.leq t1.History.h_snap t1.History.h_vec) then
              errors :=
                Fmt.str "txn %a: commit vector below snapshot" Types.tid_pp
                  t1.History.h_tid
                :: !errors;
            if not (Vc.leq t1.History.h_vec t2.History.h_snap) then
              errors :=
                Fmt.str
                  "client %d: session order violated between %a and %a \
                   (previous commit %a not within next snapshot %a)"
                  client Types.tid_pp t1.History.h_tid Types.tid_pp
                  t2.History.h_tid Vc.pp t1.History.h_vec Vc.pp
                  t2.History.h_snap
                :: !errors;
            go rest
        | [ t1 ] ->
            if not (Vc.leq t1.History.h_snap t1.History.h_vec) then
              errors :=
                Fmt.str "txn %a: commit vector below snapshot" Types.tid_pp
                  t1.History.h_tid
                :: !errors
        | [] -> ()
      in
      go in_order)
    by_client

(* ------------------------------------------------------------------ *)
(* Return-value consistency.                                            *)

(* All writes in the history, indexed by key, seeded with the preloaded
   initial database state (the paper's initial transaction t0: commit
   vector 0, below every snapshot). *)
let write_index ?(preloads = []) ?(unacked = []) txns =
  let idx = Hashtbl.create 1024 in
  List.iter
    (fun (w : Types.write) ->
      let zero_dcs =
        match txns with
        | (t : History.txn_record) :: _ -> Vc.dcs t.h_snap
        | [] -> 1
      in
      let vec = Vc.create ~dcs:zero_dcs in
      let tag = { Crdt.lc = 0; origin = -1 } in
      let cur =
        match Hashtbl.find_opt idx w.wkey with Some l -> l | None -> []
      in
      Hashtbl.replace idx w.wkey ((vec, tag, w.wop) :: cur))
    preloads;
  List.iter
    (fun ((writes : Types.write list), vec, tag) ->
      List.iter
        (fun (w : Types.write) ->
          let cur =
            match Hashtbl.find_opt idx w.wkey with Some l -> l | None -> []
          in
          Hashtbl.replace idx w.wkey ((vec, tag, w.wop) :: cur))
        writes)
    unacked;
  List.iter
    (fun (t : History.txn_record) ->
      List.iter
        (fun (w : Types.write) ->
          let tag = { Crdt.lc = t.h_lc; origin = t.h_client } in
          let cur =
            match Hashtbl.find_opt idx w.wkey with Some l -> l | None -> []
          in
          Hashtbl.replace idx w.wkey ((t.h_vec, tag, w.wop) :: cur))
        t.h_writes)
    txns;
  idx

(* Expected value of [key] in snapshot [snap], before own writes. *)
let snapshot_value idx key ~snap =
  let writes =
    match Hashtbl.find_opt idx key with Some l -> l | None -> []
  in
  List.fold_left
    (fun state (vec, tag, op) ->
      if Vc.leq vec snap then Crdt.apply state op ~tag ~vec else state)
    Crdt.empty writes
  |> Crdt.read

(* Reconstruct the interleaving of a transaction's reads and writes from
   its ordered operation descriptors and replay it. *)
let check_reads idx (t : History.txn_record) errors reads_checked =
  let reads = ref t.h_reads and writes = ref t.h_writes in
  let own = Hashtbl.create 4 in
  List.iter
    (fun (o : Types.opdesc) ->
      if o.write then begin
        match !writes with
        | w :: rest ->
            writes := rest;
            let cur =
              match Hashtbl.find_opt own w.Types.wkey with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace own w.Types.wkey (w.Types.wop :: cur)
        | [] -> ()
      end
      else
        match !reads with
        | (key, value) :: rest ->
            reads := rest;
            incr reads_checked;
            let base = snapshot_value idx key ~snap:t.h_snap in
            let expected =
              List.fold_left Crdt.apply_to_value base
                (List.rev
                   (match Hashtbl.find_opt own key with
                   | Some l -> l
                   | None -> []))
            in
            if value <> expected then
              errors :=
                Fmt.str
                  "txn %a (client %d): read of key %d returned %a, snapshot \
                   %a expects %a"
                  Types.tid_pp t.h_tid t.h_client key Crdt.value_pp value
                  Vc.pp t.h_snap Crdt.value_pp expected
                :: !errors
        | [] -> ())
    t.h_ops

(* ------------------------------------------------------------------ *)
(* Conflict ordering.                                                    *)

let txn_conflict spec (t1 : History.txn_record) (t2 : History.txn_record) =
  Config.txs_conflict spec t1.h_ops t2.h_ops

let check_conflicts cfg txns errors conflicts_checked =
  let strong =
    List.filter (fun (t : History.txn_record) -> t.h_strong) txns
  in
  let arr = Array.of_list strong in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let t1 = arr.(i) and t2 = arr.(j) in
      if txn_conflict cfg.Config.conflict t1 t2 then begin
        incr conflicts_checked;
        let s1 = Vc.strong t1.History.h_vec
        and s2 = Vc.strong t2.History.h_vec in
        if s1 = s2 then
          errors :=
            Fmt.str
              "conflicting strong txns %a and %a share strong timestamp %d"
              Types.tid_pp t1.History.h_tid Types.tid_pp t2.History.h_tid s1
            :: !errors
        else begin
          let earlier, later = if s1 < s2 then (t1, t2) else (t2, t1) in
          if
            not (Vc.leq earlier.History.h_vec later.History.h_snap)
          then
            errors :=
              Fmt.str
                "conflict ordering violated: strong txn %a (ts %d) not \
                 visible to conflicting strong txn %a (ts %d)"
                Types.tid_pp earlier.History.h_tid
                (Vc.strong earlier.History.h_vec)
                Types.tid_pp later.History.h_tid
                (Vc.strong later.History.h_vec)
              :: !errors
        end
      end
    done
  done

(* ------------------------------------------------------------------ *)

let check ?preloads ?unacked cfg txns =
  let errors = ref [] in
  let reads_checked = ref 0 and conflicts_checked = ref 0 in
  check_sessions txns errors;
  let idx = write_index ?preloads ?unacked txns in
  List.iter (fun t -> check_reads idx t errors reads_checked) txns;
  check_conflicts cfg txns errors conflicts_checked;
  {
    violations = List.rev !errors;
    transactions = List.length txns;
    reads_checked = !reads_checked;
    conflicts_checked = !conflicts_checked;
  }

let pp_result ppf r =
  if ok r then
    Fmt.pf ppf
      "PoR check passed: %d transactions, %d reads, %d conflicting pairs"
      r.transactions r.reads_checked r.conflicts_checked
  else
    Fmt.pf ppf "PoR check FAILED:@,%a"
      Fmt.(list ~sep:cut string)
      r.violations
