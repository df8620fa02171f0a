(* The repository benchmark (driven by perfbench/run.py).

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     main.exe --self-test

   One invocation measures one workload. Set-up (building the
   deployment and preloading its key space) is first timed on its own
   several times, in processor time, each from a compacted heap. A
   repetition ("rep") then builds the deployment, drives the workload to
   its horizon, drains to quiescence and passes the correctness gate.
   Reps repeat with the same seed until [--seconds] of wall time are
   spent; every rep must reproduce the first rep's simulated metrics
   exactly (later reps alternate between one engine run and fixed
   simulated slices, so this also checks that slicing changes nothing).
   Simulated-time metrics come from the first rep, which also warms the
   heap; wall-clock metrics are medians over the later reps.

   [--trace 0] prints the end-to-end metrics. [--trace 1] prints the
   per-layer metrics: untraced reps for wall, slice and GC figures, one
   run with the engine's self-profiler on (rolled up into layers by
   [Layers]), and on strong-openloop the open-loop rate ladder.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module U = Unistore
module W = Workloads
module Oracle = Explore.Oracle
module Stats = Sim.Stats
module Metrics = Sim.Metrics

(* ------------------------------------------------------------------ *)
(* Small numeric helpers.                                               *)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let maxf l = List.fold_left Float.max 0.0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms_of_us x = x /. 1000.0

(* The highest percentile (at most 99) with at least ten samples beyond
   it. *)
let tail_pct n =
  if n <= 10 then 50.0
  else Float.max 50.0 (Float.min 99.0 (100.0 *. (1.0 -. (10.0 /. float_of_int n))))

let pct s p = if Stats.count s = 0 then 0.0 else Stats.percentile s p

(* Percentile over the union of a registry histogram family, from the
   merged bucket counts (upper bucket bound, within ~9%). *)
let hist_pct ?(keep = fun _ -> true) reg name p =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (_, h) ->
      List.iter
        (fun (i, _, hi, c) ->
          let prev = try snd (Hashtbl.find counts i) with Not_found -> 0 in
          Hashtbl.replace counts i (hi, prev + c))
        (Metrics.h_buckets h))
    (List.filter (fun (labels, _) -> keep labels) (Metrics.histograms_matching reg name));
  let buckets =
    List.sort compare (Hashtbl.fold (fun i (hi, c) acc -> (i, hi, c) :: acc) counts [])
  in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
  let target = Float.ceil (p /. 100.0 *. float_of_int total) in
  let rec go seen = function
    | [] -> 0.0
    | (_, hi, c) :: rest ->
        let seen = seen + c in
        if float_of_int seen >= target then Float.max 0.0 hi else go seen rest
  in
  if total = 0 then 0.0 else go 0 buckets

let hist_max reg name =
  List.fold_left
    (fun acc (_, h) ->
      match Metrics.h_max h with Some m -> max acc m | None -> acc)
    0
    (Metrics.histograms_matching reg name)

let counter_sum ?(keep = fun _ -> true) reg name =
  List.fold_left
    (fun acc (labels, c) -> if keep labels then acc + Metrics.counter_value c else acc)
    0
    (Metrics.counters_matching reg name)

let gauge_max reg name =
  List.fold_left
    (fun acc (_, g) -> Float.max acc (Metrics.gauge_max g))
    0.0
    (Metrics.gauges_matching reg name)

(* ------------------------------------------------------------------ *)
(* One rep.                                                             *)

let slice_us = 100_000

(* What a rep's scheduled run costs; kept for every rep, while only the
   first rep's deployment is kept for the simulated metrics. *)
type wall = {
  run_wall_s : float;  (* Engine.run wall seconds *)
  sim_s : float;
  events : int;
  slice_ms : float list;  (* wall per simulated slice (sliced reps) *)
  minor_words : float;  (* Gc.quick_stat deltas over the run *)
  allocated_words : float;  (* minor plus direct major allocations *)
  major_collections : int;
}

type rep = {
  sys : U.System.t;
  calls : W.calls;
  wall : wall;
  wan_bytes : int;  (* inter-DC bytes sent up to the horizon *)
  committed : int;  (* transactions committed up to the horizon *)
  verdicts : Oracle.verdict list;
  fingerprint : string;
}

(* Drain to quiescence, as the schedule explorer does: no strong
   certification pending, no session call in flight, no DC syncing and
   no unacknowledged data-plane message (background gossip and the
   strong-heartbeat certification churn never stop, so they are
   exempt); then one grace slice. *)
let background_kind = function
  | "fd_ping" | "heartbeat" | "stablevec" | "knownvec_global" | "kv_up"
  | "stable_down" | "accept" | "accept_ack" | "deliver" | "learn_decision"
  | "decision" | "already_decided" | "prepare_strong" | "nack" ->
      true
  | _ -> false

let quiet sys =
  let net = U.System.network sys in
  U.System.pending_strong sys = 0
  && U.System.clients_in_flight sys = 0
  && Net.Network.unacked_matching net ~f:(fun k -> not (background_kind k)) = 0
  && not
       (List.exists
          (fun d -> (not (Net.Network.dc_failed net d)) && U.System.dc_syncing sys d)
          (List.init (U.Config.dcs (U.System.cfg sys)) Fun.id))

let drain sys =
  let tries = ref 16 in
  while (not (quiet sys)) && !tries > 0 do
    decr tries;
    U.System.run sys ~until:(U.System.now sys + 500_000)
  done;
  U.System.run sys ~until:(U.System.now sys + 200_000)

(* The correctness gate: convergence and liveness at quiescence on every
   workload, durability against the injected schedule on
   nemesis-churn, PoR whenever the run recorded its history while
   traced; the session accounting must balance. *)
let gate (s : W.shape) sys (calls : W.calls) ~por =
  let balanced =
    let stuck = calls.attempted - calls.committed - calls.failed in
    {
      Oracle.oracle = "accounting";
      pass = stuck >= 0 && (stuck = 0 || s.schedule <> []);
      detail =
        Fmt.str "%d attempted, %d committed, %d failed, %d still in flight"
          calls.attempted calls.committed calls.failed stuck;
    }
  in
  [ Oracle.convergence sys; Oracle.liveness sys; balanced ]
  @ (if s.schedule <> [] then [ Oracle.durability sys ~schedule:s.schedule ] else [])
  @ if por then [ Oracle.por sys ] else []

let fingerprint sys (calls : W.calls) =
  let samples s = List.fold_left (fun a x -> Hashtbl.hash (a, x)) 0 (Stats.to_list s) in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Sim.Json.to_string (Metrics.to_json (U.System.metrics sys));
            string_of_int (Sim.Engine.executed_events (U.System.engine sys));
            string_of_int (U.System.now sys);
            Fmt.str "%d %d %d %d %d" calls.attempted calls.committed calls.failed
              calls.retries calls.inputs;
            Fmt.str "%d %d %d %d %d" (samples calls.read_us)
              (samples calls.commit_causal_us) (samples calls.commit_strong_us)
              (samples calls.lag_us) (samples calls.due_us);
          ]))

(* Run the engine to [until], in fixed simulated slices when [sliced];
   [at_slice] sees each slice boundary. *)
let advance sys ~until ~sliced ~at_slice =
  if not sliced then begin
    U.System.run sys ~until;
    []
  end
  else begin
    let walls = ref [] and t = ref (U.System.now sys) in
    while !t < until do
      t := min until (!t + slice_us);
      let w0 = Unix.gettimeofday () in
      U.System.run sys ~until:!t;
      walls := ((Unix.gettimeofday () -. w0) *. 1000.0) :: !walls;
      at_slice sys !t
    done;
    List.rev !walls
  end

let inter_dc labels =
  List.assoc_opt "src_dc" labels <> List.assoc_opt "dst_dc" labels

let run_rep ?rate ?shape ?(at_slice = fun _ _ -> ()) w ~seed ~traced ~sliced =
  let s = match shape with Some s -> s | None -> W.shape w in
  let history = traced && w = W.Geo_causal in
  (* every rep starts from a collected heap, whatever ran before it *)
  Gc.full_major ();
  let sys, _ = W.build w ~seed ~profile:traced ~history in
  let calls = W.drive ~s w sys ~seed ?rate () in
  let eng = U.System.engine sys in
  let g0 = Gc.quick_stat () in
  let slice_ms = advance sys ~until:s.horizon_us ~sliced ~at_slice in
  (* cost figures cover the scheduled run; the drain that follows only
     readies the deployment for the oracles *)
  let g1 = Gc.quick_stat () in
  let allocated (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let wall =
    {
      run_wall_s = Sim.Engine.run_wall_seconds eng;
      sim_s = float_of_int (U.System.now sys) /. 1e6;
      events = Sim.Engine.executed_events eng;
      slice_ms;
      minor_words = g1.minor_words -. g0.minor_words;
      allocated_words = allocated g1 -. allocated g0;
      major_collections = g1.major_collections - g0.major_collections;
    }
  in
  let wan_bytes = counter_sum ~keep:inter_dc (U.System.metrics sys) "net_link_sent_bytes"
  and committed = U.History.committed_total (U.System.history sys) in
  drain sys;
  let por = traced && (U.System.cfg sys).U.Config.record_history in
  {
    sys;
    calls;
    wall;
    wan_bytes;
    committed;
    verdicts = gate s sys calls ~por;
    fingerprint = fingerprint sys calls;
  }

(* ------------------------------------------------------------------ *)
(* Metrics.                                                             *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Details printed before the result line: sample counts, the
   percentile each tail metric really is, and other bases. *)
let details : (string * Sim.Json.t) list ref = ref []
let detail k v = details := !details @ [ (k, v) ]

(* A latency median and tail (ms), with its sample count recorded. *)
let latency name ~samples_us =
  let n = Stats.count samples_us in
  let p = tail_pct n in
  detail name
    (Sim.Json.Obj [ ("samples", Sim.Json.Int n); ("tail_percentile", Sim.Json.Float p) ]);
  ( ms_of_us (pct samples_us 50.0),
    ms_of_us (pct samples_us p) )

(* Remote visibility delay samples (µs) of every origin/observer pair
   that has any. *)
let visibility_pairs sys =
  let dcs = List.init (U.Config.dcs (U.System.cfg sys)) Fun.id in
  let h = U.System.history sys in
  List.concat_map
    (fun obs ->
      List.filter_map
        (fun origin ->
          if obs = origin then None
          else
            match U.History.visibility_samples h ~observer:obs ~origin with
            | Some s when Stats.count s > 0 -> Some (obs, origin, s)
            | _ -> None)
        dcs)
    dcs

(* A statistic taken per pair, then averaged with the pairs weighted
   equally. The pairs' delays sit in separate modes set by geography and
   by each replica's timer phase, so a statistic of the pooled samples
   hops between modes as per-pair sample counts shift with the seed. *)
let pair_average pairs f =
  ratio
    (List.fold_left (fun acc (_, _, s) -> acc +. f s) 0.0 pairs)
    (float_of_int (List.length pairs))

let end_to_end w (r0 : rep) ~setups ~live_heap_mb =
  let h = U.System.history r0.sys in
  let causal50, causal99 = latency "causal" ~samples_us:(U.History.latency_causal h) in
  (* the open loop times each request from the instant it was due *)
  let strong_samples =
    if w = W.Strong_openloop then r0.calls.due_us else U.History.latency_strong h
  in
  let strong50, strong99 = latency "strong" ~samples_us:strong_samples in
  let pairs = visibility_pairs r0.sys in
  List.iter
    (fun (obs, origin, s) ->
      detail
        (Fmt.str "visibility_%d_from_%d" obs origin)
        (Sim.Json.Obj
           [
             ("samples", Sim.Json.Int (Stats.count s));
             ("tail_percentile", Sim.Json.Float (tail_pct (Stats.count s)));
             ("p50_ms", Sim.Json.Float (ms_of_us (pct s 50.0)));
             ("p90_ms", Sim.Json.Float (ms_of_us (pct s 90.0)));
           ]))
    pairs;
  (* the mean, not the median: on three-DC deployments a pair's median
     is set by its replicas' timer phases, drawn afresh with each seed *)
  let vis_mean = ms_of_us (pair_average pairs Stats.mean) in
  let vis_tail =
    ms_of_us (pair_average pairs (fun s -> pct s (tail_pct (Stats.count s))))
  in
  detail "wan_bytes_per_tx"
    (Sim.Json.Obj
       [ ("bytes", Sim.Json.Int r0.wan_bytes); ("committed", Sim.Json.Int r0.committed) ]);
  detail "goodput_window_commits"
    (Sim.Json.Int (Option.value ~default:0 (U.History.window_commits h)));
  [
    m "setup_s" "s" (median setups);
    m "events_per_sim_s" "1/s" (ratio (float_of_int r0.wall.events) r0.wall.sim_s);
    m "alloc_mwords_per_sim_s" "Mword/s" (r0.wall.allocated_words /. 1e6 /. r0.wall.sim_s);
    m "live_heap_mb" "MB" live_heap_mb;
    m "goodput_tx_s" "tx/s" (Option.value ~default:0.0 (U.History.throughput h));
    m "causal_p50_ms" "ms" causal50;
    m "causal_p99_ms" "ms" causal99;
    m "strong_p50_ms" "ms" strong50;
    m "strong_p99_ms" "ms" strong99;
    m "visibility_mean_ms" "ms" vis_mean;
    m "visibility_p99_ms" "ms" vis_tail;
    m "wan_bytes_per_tx" "B" (ratio (float_of_int r0.wan_bytes) (float_of_int r0.committed));
  ]

(* ------------------------------------------------------------------ *)
(* The open-loop SLO ladder (strong-openloop, traced run only).         *)

let ladder_rates = [ 500.0; 1_000.0; 1_500.0; 2_000.0; 2_500.0 ]
let slo_p99_ms = 1_000.0

(* A rung measures two simulated seconds after the usual warm-up. *)
let rung_window_us = 2_000_000


type rung = { rate : float; p99_ms : float; growing : bool; rung_ok : bool }

(* One ladder rung: the workload at [rate], sampling the pending
   certifications at every slice of the measurement window. It meets
   the SLO when the p99 from due instant to outcome (a failed or shed
   request counts as a miss) is within [slo_p99_ms] and the queue does
   not keep growing: the window's second half holds at most 1.5x the
   first half's mean depth, plus a few entries of slack. *)
let rung w ~seed rate =
  let base = W.shape w in
  let stop_us = base.warmup_us + rung_window_us in
  let s = { base with stop_us; horizon_us = stop_us + (base.horizon_us - base.stop_us) } in
  let pending = ref [] in
  let at_slice sys t =
    if t > s.warmup_us && t <= s.stop_us then
      pending := float_of_int (U.System.pending_strong sys) :: !pending
  in
  let r = run_rep ~rate ~shape:s ~at_slice w ~seed ~traced:false ~sliced:true in
  let depths = List.rev !pending in
  let half = List.length depths / 2 in
  let mean l = ratio (List.fold_left ( +. ) 0.0 l) (float_of_int (List.length l)) in
  let first = List.filteri (fun i _ -> i < half) depths
  and second = List.filteri (fun i _ -> i >= half) depths in
  let growing = mean second > (1.5 *. mean first) +. 5.0 in
  let p99_ms = ms_of_us (pct r.calls.due_us 99.0) in
  ( { rate; p99_ms; growing; rung_ok = p99_ms <= slo_p99_ms && not growing },
    r.verdicts )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (trace 1).                                         *)

let per_layer (r0 : rep) (walls : wall list) ~(traced : rep) ~(roll : Layers.rollup)
    ~max_rate =
  let reg = U.System.metrics r0.sys in
  let h = U.System.history r0.sys in
  let prof = Sim.Engine.prof (U.System.engine traced.sys) in
  let sampled =
    List.fold_left (fun acc (_, t) -> acc +. t.Layers.wall_s) 0.0 roll.per_layer
  in
  let layer n = List.assoc n roll.per_layer in
  let fi = float_of_int in
  let layers =
    List.concat_map
      (fun (n, (t : Layers.totals)) ->
        [
          m (n ^ ".events") "count" (fi t.events);
          m (n ^ ".words_per_event") "words" (ratio t.words (fi t.events));
          m (n ^ ".wall_share") "share" (ratio t.wall_s sampled);
        ])
      roll.per_layer
  in
  let sliced = List.filter (fun w -> w.slice_ms <> []) walls in
  let calls = r0.calls in
  let committed = U.History.committed_total h in
  let client_tail name samples =
    let n = Stats.count samples in
    detail name
      (Sim.Json.Obj
         [ ("samples", Sim.Json.Int n); ("tail_percentile", Sim.Json.Float (tail_pct n)) ]);
    ms_of_us (pct samples (tail_pct n))
  in
  let phase p =
    hist_pct ~keep:(fun l -> List.assoc_opt "phase" l = Some p) reg "strong_phase_us" 99.0
  in
  let over_walls f = median (List.map f walls) in
  let counter name = fi (counter_sum reg name) in
  layers
  @ [
      m "trace.overhead" "x"
        (ratio traced.wall.run_wall_s (median (List.map (fun w -> w.run_wall_s) walls)));
      m "prof.gc_noise_words" "words" (Sim.Prof.noise_words prof);
      m "prof.gc_noise_events" "count" (fi (Sim.Prof.noise_events prof));
      m "engine.run_events" "count" (fi r0.wall.events);
      m "engine.wall_s_per_sim_s" "s/s" (over_walls (fun w -> w.run_wall_s /. w.sim_s));
      m "engine.ns_per_event" "ns" (over_walls (fun w -> w.run_wall_s *. 1e9 /. fi w.events));
      m "engine.slice_wall_ms_max" "ms"
        (median (List.map (fun w -> maxf w.slice_ms) sliced));
      m "engine.slice_wall_ms_median" "ms"
        (median (List.map (fun w -> median w.slice_ms) sliced));
      m "net.ack_per_deliver" "ratio"
        (ratio (fi (layer "net.ack").events) (fi (layer "net.deliver").events));
      m "net.flow_backlog_max" "count" (gauge_max reg "net_flow_backlog");
      m "replica.uniformity_lag_ms_p99" "ms"
        (ms_of_us (hist_pct reg "uniformity_lag_probe_us" 99.0));
      m "catchup.max_ms" "ms" (ms_of_us (fi (hist_max reg "dc_catchup_us")));
      m "catchup.sync_log_bytes" "B" (counter "sync_log_bytes_total");
      m "catchup.repair_log_bytes" "B" (counter "repair_log_bytes_total");
      m "catchup.local_bytes" "B" (counter "local_catchup_bytes_total");
      m "catchup.snapshot_bytes" "B" (counter "sync_snapshot_bytes_total");
      m "catchup.gaps_detected" "count" (counter "replicate_gap_detected_total");
      m "cert.queue_delay_ms_p99" "ms" (ms_of_us (hist_pct reg "cert_queue_delay_us" 99.0));
      m "cert.phase_execute_ms_p99" "ms" (ms_of_us (phase "execute"));
      m "cert.phase_uniform_wait_ms_p99" "ms" (ms_of_us (phase "uniform_wait"));
      m "cert.phase_certify_ms_p99" "ms" (ms_of_us (phase "certify"));
      m "cert.pending_max" "count" (gauge_max reg "pending_certifications");
      m "wal.fsync_ms_p99" "ms" (ms_of_us (hist_pct reg "wal_fsync_us" 99.0));
      m "wal.bytes_per_tx" "B" (ratio (counter "wal_appended_bytes_total") (fi committed));
      m "detector.suspicions" "count" (counter "fd_suspicions_total");
      m "detector.false_suspicions" "count" (counter "fd_false_suspicions_total");
      m "gc.minor_words_per_event" "words" (over_walls (fun w -> w.minor_words /. fi w.events));
      m "gc.major_collections" "count" (over_walls (fun w -> fi w.major_collections));
      m "gc.top_heap_mb" "MB"
        (fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      m "client.read_ms_p99" "ms" (client_tail "client.read" calls.read_us);
      m "client.commit_causal_ms_p99" "ms"
        (client_tail "client.commit_causal" calls.commit_causal_us);
      m "client.commit_strong_ms_p99" "ms"
        (client_tail "client.commit_strong" calls.commit_strong_us);
      m "client.openloop_lag_ms_max" "ms" (ms_of_us (pct calls.lag_us 100.0));
      m "client.attempted" "count" (fi calls.attempted);
      m "client.committed" "count" (fi committed);
      m "client.failed_pct" "%"
        (100.0 *. ratio (fi (calls.attempted - calls.committed)) (fi calls.attempted));
      m "client.retries" "count" (fi calls.retries);
      m "client.failovers" "count" (counter "client_failovers_total");
      m "slo.max_rate_tx_s" "tx/s" max_rate;
    ]

(* ------------------------------------------------------------------ *)
(* Orchestration and output.                                            *)

(* Set-up (end-to-end runs only) is timed [setups_per_rep] times before
   each rep, and then until there are at least [setup_samples] samples;
   [setup_s] is their median. The host's speed drifts over seconds, so
   the samples are spread over the whole run. Each starts from a
   compacted heap holding only rep 0's deployment. *)
let setup_samples = 31
let setups_per_rep = 4
let max_reps = 40

exception Incorrect of string

let check_rep (first : rep option) (r : rep) =
  (match Oracle.first_failure r.verdicts with
  | Some v -> raise (Incorrect (Fmt.str "%a" Oracle.pp_verdict v))
  | None -> ());
  match first with
  | Some f when f.fingerprint <> r.fingerprint ->
      raise
        (Incorrect
           (Fmt.str "simulated metrics differ between reps of one seed (%s vs %s)"
              f.fingerprint r.fingerprint))
  | _ -> ()

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else raise (Incorrect (Fmt.str "non-finite metric value %f" v))

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "%-34s %16.6f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "details %s\n" (Sim.Json.to_string (Sim.Json.Obj !details));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_float x.value) x.unit_)
          metrics))

let run_workload w ~seed ~seconds ~trace =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let setups = ref [] in
  let time_setups n =
    if not trace then
      for _ = 1 to n do
        Gc.compact ();
        setups := snd (W.build w ~seed ~profile:false ~history:false) :: !setups
      done
  in
  (* Rep 0 supplies the simulated metrics and warms the heap (and the
     set-up code). The later reps alternate between sliced and unsliced
     engine runs; the wall figures are their medians. *)
  let r0 = run_rep w ~seed ~traced:false ~sliced:false in
  check_rep None r0;
  Gc.full_major ();
  let live_heap_mb =
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0
  in
  (* the traced run spends half its time on the untraced reps *)
  let budget = if trace then seconds /. 2.0 else seconds in
  let walls = ref [] and i = ref 1 in
  while !i < 3 || (elapsed () < budget && !i < max_reps) do
    time_setups setups_per_rep;
    let r = run_rep w ~seed ~traced:false ~sliced:(!i mod 2 = 0) in
    check_rep (Some r0) r;
    walls := r.wall :: !walls;
    incr i
  done;
  time_setups (setup_samples - List.length !setups);
  let setups = List.rev !setups in
  let walls = List.rev !walls in
  detail "timed_reps" (Sim.Json.Int (List.length walls));
  detail "wall_s_per_sim_s_by_rep"
    (Sim.Json.List (List.map (fun w -> Sim.Json.Float (w.run_wall_s /. w.sim_s)) walls));
  detail "setup_s_samples" (Sim.Json.List (List.map (fun x -> Sim.Json.Float x) setups));
  detail "simulated_s" (Sim.Json.Float r0.wall.sim_s);
  let metrics =
    if not trace then end_to_end w r0 ~setups ~live_heap_mb
    else begin
      let traced = run_rep w ~seed ~traced:true ~sliced:false in
      check_rep (Some r0) traced;
      let roll =
        Layers.rollup (Sim.Prof.entries (Sim.Engine.prof (U.System.engine traced.sys)))
      in
      if roll.unmapped <> [] || roll.ambiguous <> [] then
        raise
          (Incorrect
             (Fmt.str "profile labels outside the layer map: unmapped [%s], ambiguous [%s]"
                (String.concat "; " roll.unmapped) (String.concat "; " roll.ambiguous)));
      let max_rate =
        if w <> W.Strong_openloop then 0.0
        else begin
          let rungs =
            List.map
              (fun rate ->
                let rg, verdicts = rung w ~seed rate in
                (match Oracle.first_failure verdicts with
                | Some v ->
                    raise (Incorrect (Fmt.str "ladder rate %.0f: %a" rate Oracle.pp_verdict v))
                | None -> ());
                rg)
              ladder_rates
          in
          detail "ladder"
            (Sim.Json.List
               (List.map
                  (fun g ->
                    Sim.Json.Obj
                      [
                        ("rate_tx_s", Sim.Json.Float g.rate);
                        ("p99_ms", Sim.Json.Float g.p99_ms);
                        ("backlog_growing", Sim.Json.Bool g.growing);
                        ("meets_slo", Sim.Json.Bool g.rung_ok);
                      ])
                  rungs));
          List.fold_left
            (fun acc g -> if g.rung_ok then Float.max acc g.rate else acc)
            0.0 rungs
        end
      in
      let metrics = per_layer r0 walls ~traced ~roll ~max_rate in
      let value n = (List.find (fun x -> x.name = n) metrics).value in
      List.iter
        (fun n ->
          if value n <> 0.0 then
            raise
              (Incorrect (Fmt.str "%s is %g on a workload that skips its layer" n (value n))))
        (W.idle_metrics w);
      List.iter
        (fun n ->
          if value n <= 0.0 then
            raise (Incorrect (Fmt.str "%s is 0 on a workload meant to load its layer" n)))
        (W.busy_metrics w);
      metrics
    end
  in
  detail "wall_s" (Sim.Json.Float (elapsed ()));
  (r0.calls, metrics)

(* ------------------------------------------------------------------ *)
(* Provenance (perfbench/provenance.json).                              *)

(* A seed never used while the benchmark or a change was tuned: claims
   are re-checked on it. *)
let held_out_seed = 7919
let provenance_file = Filename.concat "perfbench" "provenance.json"

let describe () =
  let module J = Sim.Json in
  J.Obj
    [
      ("held_out_seed", J.Int held_out_seed);
      ("workloads", J.List (List.map W.describe_workload W.all));
      ( "slo_ladder",
        J.Obj
          [
            ("workload", J.String (W.to_string W.Strong_openloop));
            ("rates_tx_s", J.List (List.map (fun r -> J.Float r) ladder_rates));
            ("rung_window_us", J.Int rung_window_us);
            ("p99_limit_ms", J.Float slo_p99_ms);
          ] );
      ("openloop_lag_metric", J.String "client.openloop_lag_ms_max");
      ("dropped_workloads", J.List []);
    ]

let provenance_text () = Sim.Json.to_string_pretty (describe ()) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Self-test: determinism and seed plumbing.                            *)

let self_test () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%-68s %s\n%!" what (if cond then "ok" else "FAIL");
    if not cond then ok := false
  in
  List.iter
    (fun w ->
      let n = W.to_string w in
      let a = run_rep w ~seed:1 ~traced:false ~sliced:false in
      let b = run_rep w ~seed:1 ~traced:false ~sliced:true in
      let c = run_rep w ~seed:2 ~traced:false ~sliced:false in
      expect (n ^ ": every oracle passes")
        (List.for_all (fun r -> Oracle.ok r.verdicts) [ a; b; c ]);
      expect (n ^ ": same seed, sliced or not, same simulated metrics")
        (a.fingerprint = b.fingerprint);
      expect (n ^ ": another seed draws other inputs") (a.calls.inputs <> c.calls.inputs);
      expect (n ^ ": another seed gives other simulated metrics")
        (a.fingerprint <> c.fingerprint))
    W.all;
  let rules = List.concat_map (fun (l : Layers.layer) -> l.rules) Layers.table in
  expect "layer map: no rule in two layers"
    (List.length (List.sort_uniq compare rules) = List.length rules);
  expect "layer map: dc prefixes stripped"
    (Layers.layers_of "dc12/replica/handle:accept" = [ "cert" ]);
  expect (provenance_file ^ " matches the workload table")
    (Sys.file_exists provenance_file
    && In_channel.with_open_bin provenance_file In_channel.input_all = provenance_text ());
  !ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--self-test", Arg.Set selftest, " determinism and seed-plumbing checks");
      ( "--describe",
        Arg.Unit (fun () -> print_string (provenance_text ()); exit 0),
        " print the workload provenance table" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-test";
  if !selftest then exit (if self_test () then 0 else 1);
  match W.of_string !workload with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map W.to_string W.all));
      exit 2
  | Some w -> (
      match run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
      | calls, metrics ->
          emit ~correct:true ~attempted:calls.W.attempted
            ~failed:(calls.W.attempted - calls.W.committed) metrics
      | exception Incorrect why ->
          Printf.printf "correctness gate failed: %s\n" why;
          print_endline
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
          exit 1)
