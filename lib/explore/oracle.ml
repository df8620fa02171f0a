(* Always-on oracles: see oracle.mli for the semantics of each. *)

module U = Unistore
module Network = Net.Network

type verdict = { oracle : string; pass : bool; detail : string }

let ok vs = List.for_all (fun v -> v.pass) vs
let first_failure vs = List.find_opt (fun v -> not v.pass) vs

let pp_verdict ppf v =
  Fmt.pf ppf "%-11s %s  %s" v.oracle (if v.pass then "ok" else "FAIL") v.detail

let verdict_to_json v =
  Sim.Json.Obj
    [
      ("oracle", Sim.Json.String v.oracle);
      ("pass", Sim.Json.Bool v.pass);
      ("detail", Sim.Json.String v.detail);
    ]

let to_json vs = Sim.Json.List (List.map verdict_to_json vs)

let por sys =
  let h = U.System.history sys in
  let r =
    U.Checker.check
      ~preloads:(U.History.preloads h)
      ~unacked:(U.History.unacked_writers h)
      (U.System.cfg sys) (U.History.txns h)
  in
  { oracle = "por"; pass = U.Checker.ok r; detail = Fmt.str "%a" U.Checker.pp_result r }

let convergence sys =
  match U.System.check_convergence sys with
  | [] -> { oracle = "convergence"; pass = true; detail = "correct DCs converged" }
  | errs ->
      {
        oracle = "convergence";
        pass = false;
        detail =
          Fmt.str "%d divergences; first: %s" (List.length errs)
            (List.hd errs);
      }

(* DCs that took part in the run and can be held to account: up, and
   done resyncing. A DC still syncing at quiescence is a liveness
   failure, not a durability one. *)
let correct_dcs sys =
  let dcs = U.Config.dcs (U.System.cfg sys) in
  let net = U.System.network sys in
  List.filter
    (fun d -> (not (Network.dc_failed net d)) && not (U.System.dc_syncing sys d))
    (List.init dcs Fun.id)

let durability sys ~schedule =
  let cfg = U.System.cfg sys in
  let crashed_dcs =
    List.filter_map
      (fun (s : U.Nemesis.step) ->
        match s.ev with U.Nemesis.Crash_dc d -> Some d | _ -> None)
      schedule
  in
  let correct = correct_dcs sys in
  let checked = ref 0 and exempt = ref 0 in
  (* Presence is counted per (client, key) rather than matched on the
     exact (lc, origin) tag: the tag a store applies belongs to whichever
     certification attempt decided first, and a leader's stale-coordinator
     retry can decide with a different lc than the one the client was
     acked with — same write, same origin, different lc. Counting entries
     by origin is insensitive to that race while still catching a lost
     write (the entry is absent under every lc). *)
  let expected : (int * int, int * U.History.txn_record) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (r : U.History.txn_record) ->
      (* Causal acks do not wait for replication, so a whole-DC crash
         of the acking DC may legitimately lose them (over-approximated
         by DC: any Crash_dc of r.h_dc exempts the record). Strong
         transactions are certified across DCs before the ack and must
         survive up to f DC crashes. *)
      if (not r.h_strong) && List.mem r.h_dc crashed_dcs then
        exempt := !exempt + List.length r.h_writes
      else
        List.iter
          (fun (w : U.Types.write) ->
            incr checked;
            let k = (r.h_client, w.wkey) in
            let n =
              match Hashtbl.find_opt expected k with
              | Some (n, _) -> n
              | None -> 0
            in
            Hashtbl.replace expected k (n + 1, r))
          r.h_writes)
    (U.History.txns (U.System.history sys));
  let lost = ref [] in
  Hashtbl.iter
    (fun (client, key) (n, (r : U.History.txn_record)) ->
      let part =
        Store.Keyspace.partition ~partitions:cfg.U.Config.partitions key
      in
      List.iter
        (fun d ->
          let rep = U.System.replica sys ~dc:d ~part in
          let have =
            List.length
              (List.filter
                 (fun (e : Store.Oplog.entry) -> e.tag.Crdt.origin = client)
                 (Store.Oplog.entries (U.Replica.oplog rep) key))
          in
          if have < n then
            lost :=
              Fmt.str
                "client %d's acked writes to key %d: %d acked (last %s, lc \
                 %d) but only %d applied at dc %d"
                client key n
                (if r.h_strong then "strong" else "causal")
                r.h_lc have d
              :: !lost)
        correct)
    expected;
  match List.sort compare !lost with
  | [] ->
      {
        oracle = "durability";
        pass = true;
        detail =
          Fmt.str "%d acked writes present at %d correct DCs (%d exempt)"
            !checked (List.length correct) !exempt;
      }
  | l ->
      {
        oracle = "durability";
        pass = false;
        detail =
          Fmt.str "%d under-replicated (client, key) pairs; first: %s"
            (List.length l) (List.hd l);
      }

(* Wedged followers: certification members at correct DCs, node up,
   whose delivery frontier trails their group's furthest such member by
   more than [wedge_us] at quiescence. Strong heartbeats keep every
   frontier moving, so healthy members end within a few broadcast
   periods of each other; a member no leader's message reaches falls
   behind by the length of the outage. *)
let wedge_us = 1_000_000

let wedged_followers sys =
  let correct = correct_dcs sys in
  List.concat_map
    (fun part ->
      let members =
        List.filter_map
          (fun dc ->
            if U.System.node_down sys ~dc ~part then None
            else
              Option.map
                (fun c -> (dc, U.Cert.last_delivered c))
                (U.Replica.cert (U.System.replica sys ~dc ~part)))
          correct
      in
      let far_dc, far =
        List.fold_left
          (fun ((_, best) as acc) (dc, ts) -> if ts > best then (dc, ts) else acc)
          (-1, min_int) members
      in
      List.filter_map
        (fun (dc, ts) ->
          if far - ts > wedge_us then
            Some
              (Fmt.str "group %d: dc%d delivered to %d us, %d ms behind dc%d"
                 part dc ts ((far - ts) / 1000) far_dc)
          else None)
        members)
    (List.init (U.System.cfg sys).U.Config.partitions Fun.id)

let liveness sys =
  let cfg = U.System.cfg sys in
  let dcs = U.Config.dcs cfg in
  let net = U.System.network sys in
  let pending = U.System.pending_strong sys in
  let syncing =
    List.filter
      (fun d -> (not (Network.dc_failed net d)) && U.System.dc_syncing sys d)
      (List.init dcs Fun.id)
  in
  (* A session whose causal past references transactions a still-crashed
     DC never fully replicated can never re-attach: the failover
     CL_ATTACH wait blocks until the new DC's uniformVec covers the
     past, and an origin's uniform entry is a frontier over its whole
     lamport sequence — it can never pass the least-replicated partition
     stream of the dead DC (and uniformity needs f+1 live copies, so the
     ceiling is the minimum over correct DCs too). Losing such sessions
     is the documented sacrifice whole-DC crashes force (see
     [Client.failover]); they loop in failover forever by design and are
     exempt here. Any other stuck call is a real liveness bug. *)
  let failed = List.filter (Network.dc_failed net) (List.init dcs Fun.id) in
  let correct = correct_dcs sys in
  let uniform_ceiling origin =
    let rec go p acc =
      if p >= cfg.U.Config.partitions then acc
      else
        go (p + 1)
          (List.fold_left
             (fun acc d ->
               min acc
                 (Vclock.Vc.get
                    (U.Replica.known_vec (U.System.replica sys ~dc:d ~part:p))
                    origin))
             acc correct)
    in
    go 0 max_int
  in
  let orphaned c =
    List.exists
      (fun d -> Vclock.Vc.get (U.Client.past c) d > uniform_ceiling d)
      failed
  in
  let stuck, exempt =
    List.partition
      (fun c -> not (orphaned c))
      (List.filter U.Client.in_flight (U.System.clients sys))
  in
  let wedged = wedged_followers sys in
  if pending = 0 && syncing = [] && stuck = [] && wedged = [] then
    {
      oracle = "liveness";
      pass = true;
      detail =
        (if exempt = [] then "quiescent"
         else
           Fmt.str "quiescent (%d sessions orphaned by DC loss)"
             (List.length exempt));
    }
  else
    {
      oracle = "liveness";
      pass = false;
      detail =
        Fmt.str
          "%d pending strong certifications, %d DCs still syncing, %d \
           clients with a call in flight%s"
          pending (List.length syncing) (List.length stuck)
          (match wedged with
          | [] -> ""
          | w :: _ ->
              Fmt.str ", %d wedged followers; first: %s" (List.length wedged) w);
    }

let all sys ~schedule =
  [ por sys; convergence sys; durability sys ~schedule; liveness sys ]
