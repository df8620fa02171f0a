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

(* One dc0 replica with 1 partition of a 3-DC deployment whose siblings
   are probes: every message the replica sends lands in [sent] as
   (destination DC, message), newest first. Causal-only by default;
   [reg] receives the network's send meter ([net_sent_total] by kind),
   and [persistence] gives the replica its simulated disk. *)
let probe_rig ?(mode = U.Config.Causal_only) ?(persistence = false)
    ?(reg = Sim.Metrics.create ()) () =
  let cfg =
    U.Config.default ~topo:(default_topo ()) ~partitions:1 ~mode ~persistence
      ~use_hlc:true ~clock_skew_us:0 ()
  in
  let eng = Sim.Engine.create () in
  let net =
    Net.Network.create eng cfg.U.Config.topo reg ~kind_of:U.Msg.kind
      ~size_of:U.Msg.size_bytes
  in
  let sent = ref [] in
  let probes =
    Array.init 3 (fun dc ->
        Net.Network.register net ~dc ~cost:(fun _ -> 0) (fun m ->
            sent := (dc, m) :: !sent))
  in
  let r =
    U.Replica.create cfg eng net ~dc:0 ~part:0 ~uid:0 ~skew:0 ~tick_origin:0
      ~history:(U.History.create ()) ~trace:Sim.Trace.disabled
      ~metrics:(Sim.Metrics.create ())
  in
  U.Replica.set_addr r
    (Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (U.Replica.handle r));
  U.Replica.set_env r
    { e_lookup = (fun dc _ -> probes.(dc)); e_dc_pending = (fun _ -> 0) };
  if persistence then U.Replica.enable_persistence r;
  (eng, r, probes, sent)
