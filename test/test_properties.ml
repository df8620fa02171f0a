(* Property-based end-to-end tests: random workloads over random
   deployments must satisfy PoR consistency, converge, and replay
   deterministically. *)

module U = Unistore
module Client = U.Client

type scenario = {
  sc_seed : int;
  sc_partitions : int;
  sc_dcs : int;
  sc_clients : int;
  sc_txns : int;
  sc_keys : int;
  sc_strong_pct : int;  (* 0..100 *)
  sc_conflict : U.Config.conflict_spec;
}

let pp_scenario sc =
  Fmt.str "seed=%d parts=%d dcs=%d clients=%d txns=%d keys=%d strong=%d%%"
    sc.sc_seed sc.sc_partitions sc.sc_dcs sc.sc_clients sc.sc_txns sc.sc_keys
    sc.sc_strong_pct

let gen_scenario =
  QCheck.Gen.(
    map
      (fun ((seed, partitions, dcs, clients), (txns, keys, strong_pct, conflict)) ->
        {
          sc_seed = seed;
          sc_partitions = 1 + partitions;
          sc_dcs = 3 + dcs;
          sc_clients = 1 + clients;
          sc_txns = 1 + txns;
          sc_keys = 1 + keys;
          sc_strong_pct = strong_pct;
          sc_conflict =
            (if conflict = 0 then U.Config.Serializable
             else U.Config.Classes [ (1, 1); (1, 2) ]);
        })
      (pair
         (quad (int_bound 10_000) (int_bound 5) (int_bound 2) (int_bound 5))
         (quad (int_bound 12) (int_bound 15) (int_bound 100) (int_bound 1))))

let arb_scenario = QCheck.make ~print:pp_scenario gen_scenario

(* Spawn [sc_clients] sessions, homed round-robin, each running [body i]. *)
let spawn_clients sys sc body =
  let running = Array.make sc.sc_clients true in
  for i = 0 to sc.sc_clients - 1 do
    ignore
      (U.System.spawn_client sys ~dc:(i mod sc.sc_dcs) (fun c ->
           body i c;
           running.(i) <- false))
  done;
  running

(* Run until every session homed at a live DC has finished its body
   (within the [budget_us] of simulated time), then drain to quiescence.
   A scenario that does neither fails its case. *)
let settle sys sc running ~budget_us =
  let net = U.System.network sys in
  let finished () =
    Array.for_all Fun.id
      (Array.mapi
         (fun i r -> (not r) || Net.Network.dc_failed net (i mod sc.sc_dcs))
         running)
  in
  while (not (finished ())) && U.System.now sys < budget_us do
    U.System.run sys ~until:(U.System.now sys + 500_000)
  done;
  if not (finished () && U.System.drain sys) then
    QCheck.Test.fail_reportf "not quiet at %d us: %s" (U.System.now sys)
      (pp_scenario sc)

(* Run one random workload; returns the system after quiescence. *)
let run_scenario sc =
  let topo = Net.Topology.n_dcs sc.sc_dcs in
  let cfg =
    U.Config.default ~topo ~partitions:sc.sc_partitions ~f:1
      ~conflict:sc.sc_conflict ~seed:sc.sc_seed ~record_history:true ()
  in
  let sys = U.System.create cfg in
  for k = 0 to sc.sc_keys - 1 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  let running =
    spawn_clients sys sc (fun i c ->
        let rng = Sim.Rng.create ((sc.sc_seed * 131) + i) in
        for _ = 1 to sc.sc_txns do
          let strong = Sim.Rng.int rng 100 < sc.sc_strong_pct in
          let rec attempt n =
            Client.start c ~strong;
            let ops = 1 + Sim.Rng.int rng 3 in
            for _ = 1 to ops do
              let key = Sim.Rng.int rng sc.sc_keys in
              let cls = 1 + Sim.Rng.int rng 2 in
              if Sim.Rng.bool rng then ignore (Client.read ~cls c key)
              else
                Client.update ~cls c key (Crdt.Reg_write (Sim.Rng.int rng 1_000))
            done;
            match Client.commit c with
            | `Committed _ -> ()
            | `Aborted -> if n < 10 then attempt (n + 1)
          in
          attempt 0;
          Sim.Fiber.sleep (Sim.Rng.int rng 50_000)
        done)
  in
  settle sys sc running ~budget_us:30_000_000;
  sys

let por_holds sc =
  let sys = run_scenario sc in
  let h = U.System.history sys in
  let result =
    U.Checker.check ~preloads:(U.History.preloads h)
      ~unacked:(U.History.unacked_writers h) (U.System.cfg sys)
      (U.History.txns h)
  in
  if not (U.Checker.ok result) then
    QCheck.Test.fail_reportf "%a" U.Checker.pp_result result;
  true

let converges sc =
  let sys = run_scenario sc in
  match U.System.check_convergence sys with
  | [] -> true
  | errs -> QCheck.Test.fail_reportf "divergence: %s" (String.concat "; " errs)

let deterministic sc =
  let digest sys =
    List.map
      (fun (r : U.History.txn_record) ->
        (r.h_tid, Vclock.Vc.to_string r.h_vec, r.h_lc, r.h_commit_us))
      (U.History.txns (U.System.history sys))
  in
  let a = digest (run_scenario sc) and b = digest (run_scenario sc) in
  a = b

let all_committed_eventually_visible sc =
  (* every committed write appears in every correct DC's log *)
  let sys = run_scenario sc in
  let cfg = U.System.cfg sys in
  let txns = U.History.txns (U.System.history sys) in
  let partitions = cfg.U.Config.partitions in
  List.for_all
    (fun (r : U.History.txn_record) ->
      List.for_all
        (fun (w : U.Types.write) ->
          let part = Store.Keyspace.partition ~partitions w.wkey in
          let ok = ref true in
          for dc = 0 to U.Config.dcs cfg - 1 do
            let log = U.Replica.oplog (U.System.replica sys ~dc ~part) in
            let entries = Store.Oplog.entries log w.wkey in
            if
              not
                (List.exists
                   (fun e -> Vclock.Vc.equal e.Store.Oplog.vec r.h_vec)
                   entries)
            then ok := false
          done;
          !ok)
        r.h_writes)
    txns

(* Crash a random DC mid-run: survivors must converge and the recorded
   history must still satisfy PoR. *)
let crash_tolerant sc =
  let topo = Net.Topology.n_dcs sc.sc_dcs in
  let cfg =
    U.Config.default ~topo ~partitions:sc.sc_partitions ~f:1
      ~conflict:sc.sc_conflict ~seed:sc.sc_seed ~record_history:true ()
  in
  let sys = U.System.create cfg in
  for k = 0 to sc.sc_keys - 1 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  let crash_dc = sc.sc_seed mod sc.sc_dcs in
  let crash_at = 50_000 + (sc.sc_seed mod 400_000) in
  Sim.Engine.schedule (U.System.engine sys) ~delay:crash_at (fun () ->
      U.System.fail_dc sys crash_dc);
  let running =
    spawn_clients sys sc (fun i c ->
        let rng = Sim.Rng.create ((sc.sc_seed * 31) + i) in
        for _ = 1 to sc.sc_txns do
          let strong = Sim.Rng.int rng 100 < sc.sc_strong_pct in
          let rec attempt n =
            Client.start c ~strong;
            for _ = 1 to 1 + Sim.Rng.int rng 2 do
              let key = Sim.Rng.int rng sc.sc_keys in
              if Sim.Rng.bool rng then ignore (Client.read c key)
              else Client.update c key (Crdt.Reg_write (Sim.Rng.int rng 1_000))
            done;
            match Client.commit c with
            | `Committed _ -> ()
            | `Aborted ->
                if n < 10 then begin
                  Sim.Fiber.sleep 100_000;
                  attempt (n + 1)
                end
          in
          attempt 0;
          Sim.Fiber.sleep (Sim.Rng.int rng 50_000)
        done)
  in
  settle sys sc running ~budget_us:40_000_000;
  let h = U.System.history sys in
  let result =
    U.Checker.check ~preloads:(U.History.preloads h)
      ~unacked:(U.History.unacked_writers h) cfg (U.History.txns h)
  in
  if not (U.Checker.ok result) then
    QCheck.Test.fail_reportf "after crashing dc%d at %dus: %a" crash_dc
      crash_at U.Checker.pp_result result;
  (match U.System.check_convergence sys with
  | [] -> ()
  | errs ->
      QCheck.Test.fail_reportf "after crashing dc%d at %dus: %s" crash_dc
        crash_at (String.concat "; " errs));
  true

let t name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:12 arb_scenario prop)

let suite =
  [
    t "random workloads satisfy PoR consistency" por_holds;
    t "random workloads converge across DCs" converges;
    t "random workloads replay deterministically" deterministic;
    t "committed writes reach every DC" all_committed_eventually_visible;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"survivors of a DC crash converge and stay PoR"
         ~count:8 arb_scenario crash_tolerant);
  ]
