(* Deployment assembly: builds the data store described by a [Config.t]
   on top of the simulated network — replicas for every partition at
   every data center, certification groups, the REDBLUE centralized
   service when configured, periodic protocol tasks, clients, and
   failure injection with the Ω failure detector. *)

module Vc = Vclock.Vc
module Network = Net.Network
module Engine = Sim.Engine
module Rng = Sim.Rng

type t = {
  cfg : Config.t;
  eng : Engine.t;
  net : Msg.t Network.t;
  history : History.t;
  trace : Sim.Trace.t;
  metrics : Sim.Metrics.t;
  replicas : Replica.t array array;  (* [dc].(partition) *)
  addrs : Msg.addr array array;
  detector : Detector.t;
  mutable clients : Client.t list;
  mutable next_client : int;
  (* the initial version t0 of each preloaded op, shared by every key
     and replica that holds it *)
  t0 : (Crdt.op, Store.Oplog.entry list) Hashtbl.t;
}

let cfg t = t.cfg
let trace t = t.trace
let metrics t = t.metrics
let engine t = t.eng
let network t = t.net
let history t = t.history
let now t = Engine.now t.eng
let replica t ~dc ~part = t.replicas.(dc).(part)
let clients t = List.rev t.clients

(* Sessions with a call still outstanding (liveness-oracle hook). *)
let clients_in_flight t =
  List.length (List.filter Client.in_flight t.clients)

(* Build the REDBLUE certification service: one node per DC forming a
   single Paxos group whose committed updates are pushed to the DC's data
   partitions. Each DC's member runs on its own node, but partition 0's
   replica of the DC holds it and drives it as any certification member
   ([Replica.host_cert]): heartbeats, housekeeping, Ω trust and RETRY.
   Returns the service nodes' addresses, per DC. *)
let make_rb_certs cfg eng net ~replicas ~addrs ~rng =
  let dcs = Config.dcs cfg in
  let partitions = cfg.Config.partitions in
  let rb_addrs = Array.make dcs (-1) in
  for dc = 0 to dcs - 1 do
    let skew =
      let s = cfg.Config.clock_skew_us in
      if s = 0 then 0 else Rng.int rng (2 * s) - s
    in
    let host = replicas.(dc).(0) in
    let handler msg =
      Option.iter (fun c -> Cert.handle c msg) (Replica.cert host)
    in
    let addr =
      Network.register net ~dc
        ~name:(Fmt.str "dc%d/rbcert" dc)
        ~cost:(Msg.cost_centralized cfg.Config.costs)
        handler
    in
    rb_addrs.(dc) <- addr;
    let deliver txs ~strong_ts =
      (* push each partition its slice; every partition learns the new
         strong timestamp even when it has no writes *)
      for p = 0 to partitions - 1 do
        let sliced =
          List.map
            (Types.filter_writes (fun w ->
                 Store.Keyspace.partition ~partitions w.Types.wkey = p))
            txs
        in
        Network.send net ~src:addr ~dst:addrs.(dc).(p)
          (Msg.Push_updates { txs = sliced; strong_ts })
      done
    in
    let ctx =
      {
        Cert.x_dc = dc;
        x_group = partitions;
        x_dcs = dcs;
        x_quorum = Config.quorum cfg;
        x_conflict = cfg.Config.conflict;
        x_ops_slice = (fun ops -> List.concat_map snd ops);
        x_clock = (fun () -> Engine.now eng + skew);
        x_now = (fun () -> Engine.now eng);
        x_send =
          (fun dst msg ->
            if dst = addr then Network.send_self net ~node:addr msg
            else Network.send net ~src:addr ~dst msg);
        x_self = (fun () -> addr);
        x_member = (fun i -> rb_addrs.(i));
        x_dc_of = (fun a -> Network.dc_of net a);
        x_deliver = deliver;
        x_at_clock =
          (fun ts k ->
            if Engine.now eng + skew >= ts then k ()
            else
              Engine.schedule_at eng ~time:(ts - skew) (fun () ->
                  if not (Network.dc_failed net dc) then k ()));
        x_certify = Replica.certify host;
        x_alive = (fun () -> not (Network.dc_failed net dc));
      }
    in
    Replica.host_cert host
      (Cert.create
         ~bid_interval_us:(Config.reclaim_debounce_us cfg)
         ctx ~leader_dc:Config.leader_dc)
  done;
  rb_addrs

let create cfg =
  let eng = Engine.create ~seed:cfg.Config.seed () in
  (* the profiler must be on before anything is built: nodes and timers
     intern their attribution labels during assembly *)
  if cfg.Config.profile then
    Sim.Prof.enable ~sample_every:cfg.Config.profile_sample_every
      (Engine.prof eng);
  let prof_label name = Sim.Prof.label (Engine.prof eng) name in
  let rng = Rng.split (Engine.rng eng) ~id:0x515 in
  (* one metrics registry per deployment; the network meter feeds it the
     transport counters, replicas/clients the transaction-lifecycle
     histograms, the detector its transition counters *)
  let metrics = Sim.Metrics.create () in
  let net =
    Network.create eng cfg.Config.topo metrics ~kind_of:Msg.kind
      ~size_of:Msg.size_bytes
  in
  let history = History.create ~record_full:cfg.Config.record_history () in
  History.set_clock history (fun () -> Engine.now eng);
  let trace =
    Sim.Trace.create
      ~clock:(fun () -> Engine.now eng)
      ~enabled:cfg.Config.trace_enabled ()
  in
  Network.set_trace net trace;
  (* retransmission backoff cap derived from the deployment instead of a
     hard-coded constant: see [Config.rto_cap_us] *)
  Network.set_rto_cap net (Config.rto_cap_us cfg);
  (* lossy inter-DC links (nemesis runs): installs the fault model and
     switches inter-DC channels to the ack/retransmission transport *)
  (match cfg.Config.link_faults with
  | Some spec ->
      Network.set_faults net
        (Net.Faults.of_spec ~dcs:(Config.dcs cfg) spec)
  | None -> ());
  let dcs = Config.dcs cfg in
  let partitions = cfg.Config.partitions in
  let skews =
    Array.init dcs (fun _ ->
        Array.init partitions (fun _ ->
            let s = cfg.Config.clock_skew_us in
            if s = 0 then 0 else Rng.int rng (2 * s) - s))
  in
  (* one tick origin per DC: its replicas keep one schedule
     ([Replica.start_timers]), and DCs do not tick in lock-step *)
  let tick_origins =
    Array.init dcs (fun _ -> Rng.int rng Config.propagate_period_us)
  in
  let replicas =
    Array.init dcs (fun dc ->
        Array.init partitions (fun part ->
            Replica.create cfg eng net ~dc ~part
              ~uid:((dc * partitions) + part)
              ~skew:skews.(dc).(part) ~tick_origin:tick_origins.(dc)
              ~history ~trace ~metrics))
  in
  let addrs =
    Array.map
      (fun row ->
        Array.map
          (fun r ->
            Network.register net
              ~dc:(Replica.dc_of r)
              ~name:(Fmt.str "dc%d/replica" (Replica.dc_of r))
              ~cost:(Msg.cost cfg.Config.costs)
              (fun msg -> Replica.handle r msg))
          row)
      replicas
  in
  Array.iteri
    (fun dc row ->
      Array.iteri (fun part r -> Replica.set_addr r addrs.(dc).(part)) row)
    replicas;
  let rb_addrs =
    if Config.centralized_cert cfg then
      make_rb_certs cfg eng net ~replicas ~addrs ~rng
    else [||]
  in
  let env =
    {
      Replica.e_lookup =
        (fun dc part ->
          if part < partitions then addrs.(dc).(part) else rb_addrs.(dc));
      (* admission control reads the DC-wide in-flight strong
         certification count — the same level the
         [pending_certifications] gauge samples *)
      e_dc_pending =
        (fun dc ->
          Array.fold_left
            (fun acc r -> acc + Replica.pending_strong r)
            0 replicas.(dc));
    }
  in
  Array.iter (Array.iter (fun r -> Replica.set_env r env)) replicas;
  if Config.has_strong cfg && not (Config.centralized_cert cfg) then
    Array.iter (Array.iter Replica.make_cert) replicas;
  (* per-replica simulated disks (after make_cert: certification's
     durable events route into the same WAL) *)
  if cfg.Config.persistence then
    Array.iter (Array.iter Replica.enable_persistence) replicas;
  Array.iter (Array.iter Replica.start_timers) replicas;
  (* the Ω failure detector: heartbeats + timeout suspicion, notifying
     each observer DC's replicas of suspicion and rehabilitation
     transitions *)
  let on_suspect ~observer ~dc =
    if not (Network.dc_failed net observer) then
      Array.iter (fun r -> Replica.suspect r dc) replicas.(observer)
  in
  let on_restore ~observer ~dc =
    if not (Network.dc_failed net observer) then
      Array.iter (fun r -> Replica.unsuspect r dc) replicas.(observer)
  in
  let detector =
    Detector.create cfg eng net ~trace ~metrics ~on_suspect ~on_restore
  in
  (* periodic observability probes: per-partition uniformity lag
     (knownVec minus uniformVec — how far behind the durable frontier
     this replica's knowledge runs) and the depth of the
     pending-certification queue per DC *)
  let lbl_dc dc = ("dc", string_of_int dc) in
  let lag_gauges =
    Array.init dcs (fun dc ->
        Array.init partitions (fun part ->
            Sim.Metrics.gauge metrics
              ~labels:[ lbl_dc dc; ("part", string_of_int part) ]
              "uniformity_lag_us"))
  in
  let h_lag = Sim.Metrics.histogram metrics "uniformity_lag_probe_us" in
  let pend_gauges =
    Array.init dcs (fun dc ->
        Sim.Metrics.gauge metrics ~labels:[ lbl_dc dc ]
          "pending_certifications")
  in
  let period = Config.metrics_probe_us in
  Engine.every eng
    ~label:(prof_label "sim/probe")
    ~period ~phase:(period / 2) (fun () ->
      for dc = 0 to dcs - 1 do
        if not (Network.dc_failed net dc) then begin
          let pending = ref 0 in
          for part = 0 to partitions - 1 do
            let r = replicas.(dc).(part) in
            let known = Replica.known_vec r
            and uniform = Replica.uniform_vec r in
            let lag = ref 0 in
            for j = 0 to dcs - 1 do
              lag := max !lag (Vc.get known j - Vc.get uniform j)
            done;
            Sim.Metrics.set lag_gauges.(dc).(part) (float_of_int !lag);
            Sim.Metrics.observe h_lag !lag;
            pending := !pending + Replica.pending_strong r
          done;
          Sim.Metrics.set pend_gauges.(dc) (float_of_int !pending)
        end
      done;
      true);
  {
    cfg;
    eng;
    net;
    history;
    trace;
    metrics;
    replicas;
    addrs;
    detector;
    clients = [];
    next_client = 0;
    t0 = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Database population: install an initial version of a key at every
   data center, below every possible snapshot (commit vector 0), the
   moral equivalent of the paper's dedicated initial transaction t0.
   Every key preloaded with the same op shares one entry list: nothing
   mutates an entry, and a later write conses onto the list. *)

let preload t key op =
  let partitions = t.cfg.Config.partitions in
  let part = Store.Keyspace.partition ~partitions key in
  let t0 =
    match Hashtbl.find_opt t.t0 op with
    | Some l -> l
    | None ->
        let l =
          [
            {
              Store.Oplog.op;
              vec = Vc.create ~dcs:(Config.dcs t.cfg);
              tag = { Crdt.lc = 0; origin = -1 };
            };
          ]
        in
        Hashtbl.replace t.t0 op l;
        l
  in
  Array.iter (fun row -> Store.Oplog.install (Replica.oplog row.(part)) key t0)
    t.replicas;
  History.preloaded t.history ~key ~op

(* ------------------------------------------------------------------ *)
(* Whole-DC crash recovery: revive the network nodes, restart the
   detector node, pin the peers' GC floors for the rejoiner, and drive
   every partition replica through the snapshot + log catch-up rejoin
   protocol (DESIGN.md, "DC recovery & rejoin").                        *)

(* Is any replica of [dc] still catching up after a rejoin? Clients do
   not fail over to a syncing DC (it refuses their requests). *)
let dc_syncing t dc = Array.exists Replica.is_syncing t.replicas.(dc)

(* The nodes at [coords] lost their memory: the certification
   2PCs they were coordinating, and any DECISION still unacknowledged
   on their outgoing links, died with it. The live certification members
   of the DCs in [at] re-certify every prepared entry those nodes
   coordinated (see [Cert.retry_coordinated]). *)
let retry_coordinated t ~at ~coords =
  List.iter
    (fun dc ->
      Array.iteri
        (fun p r ->
          match Replica.cert r with
          | Some c
            when (not (Network.dc_failed t.net dc))
                 && not (Network.node_down t.net t.addrs.(dc).(p)) ->
              List.iter (fun coord -> Cert.retry_coordinated c ~coord) coords
          | _ -> ())
        t.replicas.(dc))
    at

let rec recover_dc t dc =
  if Config.centralized_cert t.cfg then
    invalid_arg
      "System.recover_dc: unsupported under the REDBLUE centralized \
       service (see ROADMAP)";
  if not (Network.dc_failed t.net dc) then begin
    (* Idempotent: a recovery for a DC that never crashed — or that an
       overlapping schedule already recovered (it is no longer failed,
       possibly still syncing) — is a no-op with a warning, not
       undefined state. Re-running the rejoin machinery over a live DC
       would wipe healthy replicas. *)
    Sim.Trace.emitf t.trace ~source:"system" ~kind:"recover-ignored"
      "ignoring recover for dc%d: not failed%s" dc
      (if dc_syncing t dc then " (still syncing)" else " (never crashed?)")
  end
  else really_recover_dc t dc

and really_recover_dc t dc =
  Network.recover_dc t.net dc;
  (* the DC-level failure domain destroys machines, disks included: a
     recovered DC always rebuilds over the WAN, never from local disks *)
  Array.iter Replica.scrub_disk t.replicas.(dc);
  (* peers must treat the rejoiner as knowing nothing until its fresh
     vectors gossip in: zero its matrix rows so the GC floors pin at 0
     instead of releasing when the grace window closes *)
  Array.iteri
    (fun dc' row ->
      if dc' <> dc && not (Network.dc_failed t.net dc') then
        Array.iter (fun r -> Replica.reset_peer_view r ~dc) row)
    t.replicas;
  Detector.revive t.detector ~dc;
  Sim.Trace.emitf t.trace ~source:"system" ~kind:"recover"
    "dc%d restarting with empty state" dc;
  (* The rejoiner's own members restart with no accepted log, so the
     other DCs' members finish the strong 2PCs its nodes were
     coordinating when it crashed, as they do for a restarted node. Ω
     does not necessarily help: a DC that crashes and recovers within
     the detection delay is never suspected. *)
  retry_coordinated t
    ~at:(List.filter (fun d -> d <> dc) (List.init (Config.dcs t.cfg) Fun.id))
    ~coords:(Array.to_list t.addrs.(dc));
  let g = Sim.Metrics.gauge t.metrics "dcs_syncing" in
  Sim.Metrics.gauge_add g 1.0;
  let remaining = ref t.cfg.Config.partitions in
  Array.iter
    (fun r ->
      Replica.begin_rejoin r ~on_done:(fun () ->
          decr remaining;
          if !remaining = 0 then begin
            Sim.Metrics.gauge_add g (-1.0);
            Sim.Trace.emitf t.trace ~source:"system" ~kind:"recover"
              "dc%d caught up" dc
          end))
    t.replicas.(dc)

(* ------------------------------------------------------------------ *)
(* Clients.                                                             *)

let new_client t ~dc =
  let id = t.next_client in
  t.next_client <- t.next_client + 1;
  let client =
    Client.create ~id ~eng:t.eng ~net:t.net ~cfg:t.cfg ~history:t.history
      ~trace:t.trace ~metrics:t.metrics ~dc
      ~replicas_of_dc:(fun dc -> t.addrs.(dc))
  in
  Client.set_dc_live client (fun dc ->
      (not (Network.dc_failed t.net dc)) && not (dc_syncing t dc));
  t.clients <- client :: t.clients;
  client

(* Spawn a client fiber: [body] runs in direct style, blocking on the
   store's replies. *)
let spawn_client t ~dc body =
  let client = new_client t ~dc in
  Sim.Fiber.spawn t.eng
    ~label:(Sim.Prof.label (Engine.prof t.eng) "fiber/client")
    (fun () -> body client);
  client

(* ------------------------------------------------------------------ *)
(* Failure injection and the Ω failure detector.                        *)

(* Crash a whole DC. Detection is no longer an oracle: the Ω detector
   notices the silence (within detection_delay_us + a ping period) and
   notifies each surviving DC independently. The detector's own loops
   for the crashed DC are retired eagerly so a pre-crash timer cannot
   outlive a fast crash→recover cycle. *)
let fail_dc t dc =
  Network.fail_dc t.net dc;
  Detector.crash t.detector ~dc

(* ------------------------------------------------------------------ *)
(* Node-level failures: one replica process dies while its DC stays up.
   The node's simulated disk survives (persistence mode), so a restart
   recovers locally and pulls only the missed suffix — no WAN snapshot.
   Whole-DC crashes above remain the machine-destroying domain.         *)

let fail_node t ~dc ~part =
  (* partition 0's disk holds the DC's REDBLUE service member, whose
     node would stay up through the restart *)
  if Config.centralized_cert t.cfg then
    invalid_arg
      "System.fail_node: unsupported under the REDBLUE centralized service";
  Network.fail_node t.net t.addrs.(dc).(part);
  Replica.crash_node t.replicas.(dc).(part);
  Sim.Trace.emitf t.trace ~source:"system" ~kind:"node-crash"
    "node %d.%d crashed" dc part

let node_down t ~dc ~part = Network.node_down t.net t.addrs.(dc).(part)

let restart_node t ~dc ~part =
  if not (Network.node_down t.net t.addrs.(dc).(part)) then
    Sim.Trace.emitf t.trace ~source:"system" ~kind:"node-recover-ignored"
      "ignoring restart for node %d.%d: not down" dc part
  else begin
    Network.recover_node t.net t.addrs.(dc).(part);
    Sim.Trace.emitf t.trace ~source:"system" ~kind:"node-recover"
      "node %d.%d restarting from its disk" dc part;
    Replica.restart_from_disk t.replicas.(dc).(part) ~on_done:(fun () ->
        Sim.Trace.emitf t.trace ~source:"system" ~kind:"node-recover"
          "node %d.%d caught up" dc part);
    (* The DC sees its node come back, as Ω sees a DC: the live
       certification members of the DC, the node's own included, finish
       the strong 2PCs it was coordinating. Every group has a member
       here, so between them they hold every entry the node left
       undecided. Ω cannot help — the DC never went silent. *)
    let coord = t.addrs.(dc).(part) in
    retry_coordinated t ~at:[ dc ] ~coords:[ coord ]
  end

let set_disk_slow t ~dc ~part ~factor =
  Replica.set_disk_slow t.replicas.(dc).(part) ~factor

let detector t = t.detector

let faults t = Network.faults t.net

(* Strong transactions still awaiting a certification decision at
   coordinators of live DCs (dummy heartbeats excluded). Zero after
   quiescence = no strong transaction is stuck pending. *)
let pending_strong t =
  let total = ref 0 in
  Array.iteri
    (fun dc row ->
      if not (Network.dc_failed t.net dc) then
        Array.iter (fun r -> total := !total + Replica.pending_strong r) row)
    t.replicas;
  !total

(* ------------------------------------------------------------------ *)
(* Running and measurement.                                             *)

let run t ~until = Engine.run t.eng ~until

(* Message kinds that are always momentarily in flight: failure-detector
   pings and stability gossip, and the strong-certification family —
   idle groups keep certifying dummy heartbeat transactions to advance
   the strong frontier, so accept/deliver traffic never ceases. *)
let background_kind = function
  | "fd_ping" | "heartbeat" | "knownvec_global" | "kv_up" | "stable_down"
  | "accept" | "accept_ack" | "deliver" | "learn_decision" | "decision"
  | "already_decided" | "prepare_strong" | "nack" ->
      true
  | _ -> false

(* How far past now a live node's CPU may be booked at quiescence:
   background traffic keeps a node a few message costs ahead, while a
   node working through a delivered backlog is booked far ahead. *)
let quiet_cpu_slack_us = 10_000

(* Unacknowledged data-plane messages count: on lossy links the tail of
   causal replication can sit in retransmission for several RTOs after
   the protocol counters reach zero. So do messages delivered to a live
   node's inbox and still waiting for its CPU. *)
let quiet t =
  let live dc = not (Network.dc_failed t.net dc) in
  Network.settle_all t.net;
  Network.cpu_booked_until t.net <= now t + quiet_cpu_slack_us
  && pending_strong t = 0
  && (not
        (List.exists
           (fun c -> Client.in_flight c && live (Client.dc c))
           t.clients))
  && Network.unacked_matching t.net ~f:(fun k -> not (background_kind k)) = 0
  && not
       (List.exists
          (fun dc -> live dc && dc_syncing t dc)
          (List.init (Config.dcs t.cfg) Fun.id))

(* The periodic tasks never stop, so the engine never runs empty. *)
let drain t =
  let tries = ref 16 in
  while (not (quiet t)) && !tries > 0 do
    decr tries;
    run t ~until:(now t + 500_000)
  done;
  let quiet = quiet t in
  run t ~until:(now t + 200_000);
  quiet

let set_window t ~start ~stop = History.set_window t.history ~start ~stop

(* ------------------------------------------------------------------ *)
(* Convergence check (tests): after quiescence, correct data centers
   must agree on every key (Eventual Visibility + CRDT convergence).    *)

let top_snapshot t =
  let v = Vc.create ~dcs:(Config.dcs t.cfg) in
  for i = 0 to Config.dcs t.cfg do
    Vc.set v i max_int
  done;
  v

let check_convergence t =
  let errors = ref [] in
  let snap = top_snapshot t in
  let correct =
    List.filter
      (fun dc -> not (Network.dc_failed t.net dc))
      (List.init (Config.dcs t.cfg) Fun.id)
  in
  (match correct with
  | [] | [ _ ] -> ()
  | ref_dc :: rest ->
      for part = 0 to t.cfg.Config.partitions - 1 do
        let ref_log = Replica.oplog t.replicas.(ref_dc).(part) in
        let ref_keys = List.sort compare (Store.Oplog.keys ref_log) in
        List.iter
          (fun dc ->
            let log = Replica.oplog t.replicas.(dc).(part) in
            let keys = List.sort compare (Store.Oplog.keys log) in
            if keys <> ref_keys then begin
              let missing l l' = List.filter (fun k -> not (List.mem k l')) l in
              errors :=
                Fmt.str "partition %d: dc%d and dc%d store different key sets (dc%d-only: %a; dc%d-only: %a)"
                  part ref_dc dc ref_dc
                  Fmt.(list ~sep:comma int) (missing ref_keys keys)
                  dc Fmt.(list ~sep:comma int) (missing keys ref_keys)
                :: !errors
            end
            else
              List.iter
                (fun key ->
                  let v1, _ = Store.Oplog.read ref_log key ~snap in
                  let v2, _ = Store.Oplog.read log key ~snap in
                  if v1 <> v2 then
                    errors :=
                      Fmt.str
                        "partition %d key %d: dc%d reads %a but dc%d reads %a"
                        part key ref_dc Crdt.value_pp v1 dc Crdt.value_pp v2
                      :: !errors)
                ref_keys)
          rest
      done);
  List.rev !errors
