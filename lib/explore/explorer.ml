(* Swarm fault-space exploration: see explorer.mli for the model. *)

module U = Unistore
module Network = Net.Network
module Json = Sim.Json

type profile = {
  p_dcs : int;
  p_f : int;
  p_partitions : int;
  p_persistence : bool;
  p_admission : int;
  p_lossy : bool;
  p_open_rate : float option;
  p_clients : int;
  p_strong_ratio : float;
  p_keys : int;
  p_max_crashes : int;
  p_max_recoveries : int;
  p_max_partitions : int;
  p_max_degrades : int;
  p_max_sync_partitions : int;
  p_max_sync_degrades : int;
  p_max_node_crashes : int;
  p_horizon_us : int;
}

let profile_to_json p =
  Json.Obj
    [
      ("dcs", Json.Int p.p_dcs);
      ("f", Json.Int p.p_f);
      ("partitions", Json.Int p.p_partitions);
      ("persistence", Json.Bool p.p_persistence);
      ("admission_max_pending", Json.Int p.p_admission);
      ("lossy", Json.Bool p.p_lossy);
      ( "open_rate",
        match p.p_open_rate with None -> Json.Null | Some r -> Json.Float r );
      ("clients_per_dc", Json.Int p.p_clients);
      ("strong_ratio", Json.Float p.p_strong_ratio);
      ("keys", Json.Int p.p_keys);
      ("max_crashes", Json.Int p.p_max_crashes);
      ("max_recoveries", Json.Int p.p_max_recoveries);
      ("max_partitions", Json.Int p.p_max_partitions);
      ("max_degrades", Json.Int p.p_max_degrades);
      ("max_sync_partitions", Json.Int p.p_max_sync_partitions);
      ("max_sync_degrades", Json.Int p.p_max_sync_degrades);
      ("max_node_crashes", Json.Int p.p_max_node_crashes);
      ("horizon_us", Json.Int p.p_horizon_us);
    ]

let profile_of_json j =
  let ( let* ) = Result.bind in
  let int name =
    match Option.bind (Json.member name j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Fmt.str "profile: missing int field %S" name)
  in
  let float name =
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Fmt.str "profile: missing float field %S" name)
  in
  let bool name =
    match Json.member name j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (Fmt.str "profile: missing bool field %S" name)
  in
  let* p_dcs = int "dcs" in
  let* p_f = int "f" in
  let* p_partitions = int "partitions" in
  let* p_persistence = bool "persistence" in
  let* p_admission = int "admission_max_pending" in
  let* p_lossy = bool "lossy" in
  let p_open_rate =
    Option.bind (Json.member "open_rate" j) Json.to_float_opt
  in
  let* p_clients = int "clients_per_dc" in
  let* p_strong_ratio = float "strong_ratio" in
  let* p_keys = int "keys" in
  let* p_max_crashes = int "max_crashes" in
  let* p_max_recoveries = int "max_recoveries" in
  let* p_max_partitions = int "max_partitions" in
  let* p_max_degrades = int "max_degrades" in
  let* p_max_sync_partitions = int "max_sync_partitions" in
  let* p_max_sync_degrades = int "max_sync_degrades" in
  let* p_max_node_crashes = int "max_node_crashes" in
  let* p_horizon_us = int "horizon_us" in
  Ok
    {
      p_dcs;
      p_f;
      p_partitions;
      p_persistence;
      p_admission;
      p_lossy;
      p_open_rate;
      p_clients;
      p_strong_ratio;
      p_keys;
      p_max_crashes;
      p_max_recoveries;
      p_max_partitions;
      p_max_degrades;
      p_max_sync_partitions;
      p_max_sync_degrades;
      p_max_node_crashes;
      p_horizon_us;
    }

(* Swarm draw. The constraints Nemesis.validate enforces hold by
   construction: topologies stay at dcs = 2f+1 (partitions are always
   legal), DC crashes never exceed f (strong durability), and node
   crash/restart cycles imply persistence and exclude DC crashes (the
   two failure domains never mix, on any DC). *)
let draw rng ~horizon_us =
  let big = Sim.Rng.int rng 4 = 0 in
  let p_dcs = if big then 5 else 3 in
  let p_f = if big then 2 else 1 in
  let p_persistence = Sim.Rng.bool rng in
  let p_max_node_crashes =
    if p_persistence && Sim.Rng.bool rng then 1 + Sim.Rng.int rng 2 else 0
  in
  let p_max_crashes =
    if p_max_node_crashes > 0 then 0 else Sim.Rng.int rng (p_f + 1)
  in
  let p_max_recoveries =
    if p_max_crashes > 0 && Sim.Rng.bool rng then p_max_crashes else 0
  in
  let p_max_sync_partitions =
    if p_max_recoveries > 0 && Sim.Rng.bool rng then 1 else 0
  in
  let p_max_sync_degrades =
    if p_max_recoveries > 0 && Sim.Rng.bool rng then 1 else 0
  in
  let p_partitions = 2 + Sim.Rng.int rng 3 in
  {
    p_dcs;
    p_f;
    p_partitions;
    p_persistence;
    p_admission = (if Sim.Rng.bool rng then 0 else 64);
    p_lossy = Sim.Rng.bool rng;
    p_open_rate =
      (if Sim.Rng.int rng 4 = 0 then
         Some (200.0 +. Sim.Rng.float rng 600.0)
       else None);
    p_clients = 2 + Sim.Rng.int rng 3;
    p_strong_ratio = [| 0.0; 0.1; 0.3 |].(Sim.Rng.int rng 3);
    p_keys = 200 + (100 * Sim.Rng.int rng 4);
    p_max_crashes;
    p_max_recoveries;
    p_max_partitions = Sim.Rng.int rng 3;
    p_max_degrades = Sim.Rng.int rng 3;
    p_max_sync_partitions;
    p_max_sync_degrades;
    p_max_node_crashes;
    p_horizon_us = horizon_us;
  }

let schedule_of p ~seed =
  U.Nemesis.random_schedule ~seed ~dcs:p.p_dcs ~horizon_us:p.p_horizon_us
    ~max_crashes:p.p_max_crashes ~max_partitions:p.p_max_partitions
    ~max_degrades:p.p_max_degrades ~max_recoveries:p.p_max_recoveries
    ~max_sync_partitions:p.p_max_sync_partitions
    ~max_sync_degrades:p.p_max_sync_degrades
    ~max_node_crashes:p.p_max_node_crashes ~node_partitions:p.p_partitions ()

let topo_of = function
  | 3 -> Net.Topology.three_dcs ()
  | 4 -> Net.Topology.four_dcs ()
  | 5 -> Net.Topology.five_dcs ()
  | n -> Net.Topology.n_dcs n

let run_with p ~seed ~sched =
  let link_faults =
    if p.p_lossy then Net.Faults.default_spec else Net.Faults.clean_spec
  in
  let cfg =
    U.Config.default ~topo:(topo_of p.p_dcs) ~partitions:p.p_partitions
      ~f:p.p_f ~seed ~link_faults ~record_history:true ~profile:true
      ~client_failover_us:300_000 ~persistence:p.p_persistence
      ~admission_max_pending:p.p_admission ()
  in
  let sys = U.System.create cfg in
  for k = 0 to 15 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  U.Nemesis.inject sys sched;
  (* Workload stops at the schedule's Heal_all (3/4 of the horizon);
     the last quarter is the settle window the oracles rely on. *)
  let heal_at = p.p_horizon_us * 3 / 4 in
  let spec =
    {
      (Workload.Micro.default_spec ~partitions:p.p_partitions) with
      Workload.Micro.keys = p.p_keys;
      strong_ratio = p.p_strong_ratio;
      think_time_us = 1_000;
    }
  in
  (match p.p_open_rate with
  | Some rate ->
      let rng =
        Sim.Rng.split (Sim.Engine.rng (U.System.engine sys)) ~id:0xa111
      in
      let arrivals =
        Workload.Openloop.arrivals ~rng
          ~rate:(Workload.Openloop.constant rate)
          ~until_us:heal_at
      in
      ignore
        (Workload.Openloop.install sys ~arrivals
           ~body:(Workload.Openloop.micro_body spec))
  | None ->
      let stop () = U.System.now sys >= heal_at in
      for i = 0 to (p.p_clients * p.p_dcs) - 1 do
        ignore
          (U.System.spawn_client sys ~dc:(i mod p.p_dcs) (fun c ->
               Workload.Micro.client_body spec ~stop c))
      done);
  U.System.run sys ~until:p.p_horizon_us;
  (* A system still unquiet after the drain budget is what the liveness
     oracle is for. *)
  ignore (U.System.drain sys);
  (Oracle.all sys ~schedule:sched, sys)

(* Fingerprints: which mechanisms did the trial exercise? Only
   deterministic signals — the profiler's per-label event counts (wall
   samples and allocation are excluded), drop/retransmission counters,
   a whitelist of protocol counters, failing oracles. *)

let counter_whitelist =
  [
    "causal_presumed_aborts_total";
    "client_failovers_total";
    "fd_false_suspicions_total";
    "fd_restorations_total";
    "fd_suspicions_total";
    "local_catchup_bytes_total";
    "node_restarts_total";
    "open_loop_arrivals_total";
    "repair_log_bytes_total";
    "replay_entries_total";
    "replicate_gap_detected_total";
    "strong_aborted_total";
    "sync_snapshot_bytes_total";
    "txn_overloaded_total";
    "wal_torn_truncations_total";
  ]

(* "dc3/replica/handle:Replicate" -> "replica/handle:Replicate": the
   same code path at a different DC is not new coverage. *)
let normalize_label l =
  match String.index_opt l '/' with
  | Some i
    when i >= 3
         && l.[0] = 'd'
         && l.[1] = 'c'
         && (let digits = ref true in
             for j = 2 to i - 1 do
               if not ('0' <= l.[j] && l.[j] <= '9') then digits := false
             done;
             !digits) ->
      String.sub l (i + 1) (String.length l - i - 1)
  | _ -> l

let features sys verdicts =
  let prof = Sim.Engine.prof (U.System.engine sys) in
  let net = U.System.network sys in
  let metrics = U.System.metrics sys in
  let labels =
    List.filter_map
      (fun (e : Sim.Prof.entry) ->
        if e.e_events > 0 then Some ("lbl:" ^ normalize_label e.e_label)
        else None)
      (Sim.Prof.entries prof)
  in
  let flag name v = if v > 0 then [ name ] else [] in
  let counters =
    List.concat_map
      (fun name ->
        let total =
          List.fold_left
            (fun a (_, c) -> a + Sim.Metrics.counter_value c)
            0
            (Sim.Metrics.counters_matching metrics name)
        in
        if total > 0 then [ "ctr:" ^ name ] else [])
      counter_whitelist
  in
  let fails =
    List.filter_map
      (fun (v : Oracle.verdict) ->
        if v.pass then None else Some ("fail:" ^ v.oracle))
      verdicts
  in
  List.sort_uniq String.compare
    (labels
    @ flag "drop:crash" (Network.dropped_crash net)
    @ flag "drop:loss" (Network.dropped_loss net)
    @ flag "drop:partition" (Network.dropped_partition net)
    @ flag "net:retransmit" (Network.retransmissions net)
    @ flag "net:dup" (Network.duplicates_suppressed net)
    @ counters @ fails)

(* FNV-1a over the sorted feature strings, 0x1f as separator. *)
let fingerprint feats =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime in
  List.iter
    (fun s ->
      String.iter (fun c -> mix (Char.code c)) s;
      mix 0x1f)
    feats;
  Printf.sprintf "%016Lx" !h

type trial = {
  t_index : int;
  t_seed : int;
  t_profile : profile;
  t_schedule : U.Nemesis.schedule;
  t_verdicts : Oracle.verdict list;
  t_features : string list;
  t_fingerprint : string;
  t_novel : bool;
}

type outcome = {
  o_trials : trial list;
  o_corpus : trial list;
  o_failures : trial list;
}

let run_trial ~index p ~seed =
  let sched = schedule_of p ~seed in
  let verdicts, sys = run_with p ~seed ~sched in
  let feats = features sys verdicts in
  {
    t_index = index;
    t_seed = seed;
    t_profile = p;
    t_schedule = sched;
    t_verdicts = verdicts;
    t_features = feats;
    t_fingerprint = fingerprint feats;
    t_novel = false;
  }

let explore ?(horizon_us = 8_000_000) ?on_trial ~trials ~seed () =
  let rng = Sim.Rng.create (seed lxor 0x58504c) in
  let union = Hashtbl.create 256 in
  let acc = ref [] in
  for i = 0 to trials - 1 do
    let p = draw rng ~horizon_us in
    let tseed = 1 + Sim.Rng.int rng 0x3FFFFFFF in
    let t = run_trial ~index:i p ~seed:tseed in
    let novel =
      List.exists (fun f -> not (Hashtbl.mem union f)) t.t_features
    in
    List.iter (fun f -> Hashtbl.replace union f ()) t.t_features;
    let t = { t with t_novel = novel } in
    Option.iter (fun f -> f t) on_trial;
    acc := t :: !acc
  done;
  let ts = List.rev !acc in
  {
    o_trials = ts;
    o_corpus = List.filter (fun t -> t.t_novel) ts;
    o_failures = List.filter (fun t -> not (Oracle.ok t.t_verdicts)) ts;
  }

type case = {
  c_profile : profile;
  c_seed : int;
  c_schedule : U.Nemesis.schedule;
}

let case_of_trial t =
  { c_profile = t.t_profile; c_seed = t.t_seed; c_schedule = t.t_schedule }

let replay case = run_with case.c_profile ~seed:case.c_seed ~sched:case.c_schedule

let schedule_fails case ~oracle sched =
  match run_with case.c_profile ~seed:case.c_seed ~sched with
  | verdicts, _ ->
      List.exists
        (fun (v : Oracle.verdict) -> v.oracle = oracle && not v.pass)
        verdicts
  | exception Invalid_argument _ -> false

let trial_to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("kind", Json.String "corpus");
      ("seed", Json.Int t.t_seed);
      ("fingerprint", Json.String t.t_fingerprint);
      ("profile", profile_to_json t.t_profile);
      ( "features",
        Json.List (List.map (fun f -> Json.String f) t.t_features) );
      ("verdicts", Oracle.to_json t.t_verdicts);
      ("schedule", U.Nemesis.schedule_to_json t.t_schedule);
    ]

let repro_to_json case ~failing:(v : Oracle.verdict) =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("kind", Json.String "repro");
      ("failing_oracle", Json.String v.oracle);
      ("detail", Json.String v.detail);
      ("seed", Json.Int case.c_seed);
      ("profile", profile_to_json case.c_profile);
      ("schedule", U.Nemesis.schedule_to_json case.c_schedule);
      ( "replay",
        Json.String "dune exec bin/explore.exe -- --replay <this file>" );
    ]

let case_of_json j =
  let ( let* ) = Result.bind in
  let* c_seed =
    match Option.bind (Json.member "seed" j) Json.to_int_opt with
    | Some s -> Ok s
    | None -> Error "case: missing int field \"seed\""
  in
  let* c_profile =
    match Json.member "profile" j with
    | Some pj -> profile_of_json pj
    | None -> Error "case: missing \"profile\""
  in
  let* c_schedule =
    match Json.member "schedule" j with
    | Some sj -> U.Nemesis.schedule_of_json sj
    | None -> Error "case: missing \"schedule\""
  in
  Ok { c_profile; c_seed; c_schedule }
