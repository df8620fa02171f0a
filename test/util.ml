(* Shared helpers for the protocol-level tests. *)

module U = Unistore

let default_topo () =
  Net.Topology.three_dcs ()

(* A small deployment suitable for protocol tests: full history recording
   so the PoR checker can run afterwards. *)
let make_system ?(topo = default_topo ()) ?(partitions = 4) ?(f = 1)
    ?(mode = U.Config.Unistore) ?(conflict = U.Config.Serializable)
    ?(seed = 42) ?(clock_skew_us = 1_000) ?link_faults ?client_failover_us
    ?persistence ?snapshot_interval_us ?(trace_enabled = false) () =
  let cfg =
    U.Config.default ~topo ~partitions ~f ~mode ~conflict ~seed ~clock_skew_us
      ?link_faults ?client_failover_us ?persistence ?snapshot_interval_us
      ~trace_enabled ~record_history:true ()
  in
  U.System.create cfg

(* Run the system until [until]; fail the test if fibers are stuck. *)
let run sys ~until = U.System.run sys ~until

(* Run the PoR checker over the recorded history and assert it passes. *)
let assert_por sys =
  let h = U.System.history sys in
  let result =
    U.Checker.check ~preloads:(U.History.preloads h)
      ~unacked:(U.History.unacked_writers h) (U.System.cfg sys)
      (U.History.txns h)
  in
  if not (U.Checker.ok result) then
    Alcotest.failf "%a" U.Checker.pp_result result

(* Assert convergence of all correct DCs (Eventual Visibility). *)
let assert_convergence sys =
  match U.System.check_convergence sys with
  | [] -> ()
  | errs -> Alcotest.failf "divergence:@.%s" (String.concat "\n" errs)

let int_value = Crdt.int_value
