(* Machine-readable run reports (BENCH_*.json artifacts).

   One experiment run — a [System.t] driven to completion — renders to a
   JSON document with the quantities every figure and table of the
   evaluation is built from: throughput over the measurement window,
   latency percentiles per transaction class, the abort rate, the
   strong-transaction phase breakdown (execute / uniform_wait / certify,
   from the metrics histograms the protocol instrumentation feeds), and
   the full metrics snapshot. Everything in the document derives from
   simulated time and deterministic counters, so a fixed seed produces a
   byte-identical artifact — which is what the golden-file test pins
   down and what makes the artifacts diffable across commits.

   The harness ([bench/]) wraps these documents with per-artifact sweep
   data; the text reporters ([pp_phase_breakdown], [pp_uniformity_lag])
   print the same numbers human-readably. *)

module Json = Sim.Json
module Metrics = Sim.Metrics
module Stats = Sim.Stats

let ms_of_us v = v /. 1000.0

let float_or_null = function
  | None -> Json.Null
  | Some v -> Json.Float v

let ms_or_null o = float_or_null (Option.map ms_of_us o)

(* Latency summary of a raw sample set (exact percentiles): count and
   mean/p50/p90/p99 in milliseconds, null when there are no samples. *)
let latency_json s =
  Json.Obj
    [
      ("count", Json.Int (Stats.count s));
      ("mean_ms", ms_or_null (Stats.mean_opt s));
      ("p50_ms", ms_or_null (Stats.percentile_opt s 50.0));
      ("p90_ms", ms_or_null (Stats.percentile_opt s 90.0));
      ("p99_ms", ms_or_null (Stats.percentile_opt s 99.0));
    ]

(* The same summary for a streaming metrics histogram (bucketed
   percentile estimates). *)
let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int (Metrics.h_count h));
      ("mean_ms", ms_or_null (Metrics.h_mean h));
      ("p50_ms", ms_or_null (Metrics.h_percentile h 50.0));
      ("p90_ms", ms_or_null (Metrics.h_percentile h 90.0));
      ("p99_ms", ms_or_null (Metrics.h_percentile h 99.0));
    ]

(* Strong-transaction lifecycle order, not alphabetical. *)
let phase_order = [ "execute"; "uniform_wait"; "certify" ]

let phases_of reg =
  let all = Metrics.histograms_matching reg "strong_phase_us" in
  let named =
    List.filter_map
      (fun (labels, h) ->
        Option.map (fun p -> (p, h)) (List.assoc_opt "phase" labels))
      all
  in
  let listed =
    List.filter_map
      (fun p -> Option.map (fun h -> (p, h)) (List.assoc_opt p named))
      phase_order
  in
  let rest =
    List.filter (fun (p, _) -> not (List.mem p phase_order)) named
  in
  listed @ rest

let phases_json reg =
  Json.List
    (List.map
       (fun (phase, h) ->
         match histogram_json h with
         | Json.Obj fields ->
             Json.Obj (("phase", Json.String phase) :: fields)
         | j -> j)
       (phases_of reg))

(* DC-recovery section, present only when a recovery ran or a
   replication-stream gap was detected (every metric below is interned
   lazily, so crash-free runs — and their golden artifacts — are
   untouched): catch-up duration, snapshot transfer volume, client
   failovers, peak syncing DCs, and the
   stream-continuity repair counters (gaps refused, repair pull rounds,
   repair backfill volume). *)
let recovery_json reg =
  let counter_total name =
    List.fold_left
      (fun acc (_, c) -> acc + Metrics.counter_value c)
      0
      (Metrics.counters_matching reg name)
  in
  let gaps = counter_total "replicate_gap_detected_total" in
  match (Metrics.histograms_matching reg "dc_catchup_us", gaps) with
  | [], 0 -> None
  | catchup, _ ->
      let peak_syncing =
        match Metrics.gauges_matching reg "dcs_syncing" with
        | (_, g) :: _ -> Metrics.gauge_max g
        | [] -> 0.0
      in
      let catchup_field =
        match catchup with
        | (_, h) :: _ -> [ ("dc_catchup", histogram_json h) ]
        | [] -> []
      in
      Some
        (Json.Obj
           (catchup_field
           @ [
               ("snapshot_bytes", Json.Int (counter_total "sync_snapshot_bytes_total"));
               ("client_failovers", Json.Int (counter_total "client_failovers_total"));
               ("dcs_syncing_peak", Json.Float peak_syncing);
               ("replicate_gaps", Json.Int gaps);
               ("repair_pull_rounds", Json.Int (counter_total "repair_pull_rounds_total"));
               ("repair_log_bytes", Json.Int (counter_total "repair_log_bytes_total"));
             ]))

(* Persistence section, present only when per-node disks ran
   ([Config.persistence]; every metric below is interned lazily so
   memory-only runs and their golden artifacts are untouched): WAL
   fsync latency and volume, node restarts, replay sizes, and the
   local-vs-WAN catch-up split that the zero-WAN-restart verdict reads. *)
let persistence_json reg =
  let counter_total name =
    List.fold_left
      (fun acc (_, c) -> acc + Metrics.counter_value c)
      0
      (Metrics.counters_matching reg name)
  in
  match Metrics.histograms_matching reg "wal_fsync_us" with
  | [] -> None
  | fsyncs ->
      (* fsync histograms are per node; merge by reporting the worst and
         the global count/sum through a combined view *)
      let count = List.fold_left (fun a (_, h) -> a + Metrics.h_count h) 0 fsyncs in
      let sum = List.fold_left (fun a (_, h) -> a +. Metrics.h_sum h) 0.0 fsyncs in
      let worst =
        List.fold_left
          (fun a (_, h) -> match Metrics.h_max h with Some m -> max a m | None -> a)
          0 fsyncs
      in
      Some
        (Json.Obj
           [
             ("wal_fsyncs", Json.Int count);
             ( "wal_fsync_mean_us",
               if count = 0 then Json.Null
               else Json.Float (sum /. float_of_int count) );
             ("wal_fsync_max_us", Json.Int worst);
             ("wal_appended_bytes", Json.Int (counter_total "wal_appended_bytes_total"));
             ("wal_torn_truncations", Json.Int (counter_total "wal_torn_truncations_total"));
             ("node_restarts", Json.Int (counter_total "node_restarts_total"));
             ("replay_entries", Json.Int (counter_total "replay_entries_total"));
             ("local_catchup_bytes", Json.Int (counter_total "local_catchup_bytes_total"));
             ("wan_snapshot_bytes", Json.Int (counter_total "sync_snapshot_bytes_total"));
             ("presumed_aborts", Json.Int (counter_total "causal_presumed_aborts_total"));
           ])

(* Overload section, present only when admission control or an open-loop
   driver left traces in the registry (all the metrics below are interned
   lazily, so closed-loop runs and their golden artifacts are
   untouched): certification queue delay, arrivals, sheds on both sides
   of the wire, and the peak pending-certification backlog. *)
let overload_json reg =
  let counter_total name =
    List.fold_left
      (fun acc (_, c) -> acc + Metrics.counter_value c)
      0
      (Metrics.counters_matching reg name)
  in
  let queue_delay = Metrics.histograms_matching reg "cert_queue_delay_us" in
  let rejects = counter_total "admission_rejects_total" in
  let arrivals = counter_total "open_loop_arrivals_total" in
  if queue_delay = [] && rejects = 0 && arrivals = 0 then None
  else
    let pending_peak =
      List.fold_left
        (fun acc (_, g) -> Float.max acc (Metrics.gauge_max g))
        0.0
        (Metrics.gauges_matching reg "pending_certifications")
    in
    Some
      (Json.Obj
         [
           ( "cert_queue_delay",
             match queue_delay with
             | (_, h) :: _ -> histogram_json h
             | [] -> Json.Null );
           ("admission_rejects", Json.Int rejects);
           ("client_overloaded", Json.Int (counter_total "txn_overloaded_total"));
           ("open_loop_arrivals", Json.Int arrivals);
           ("pending_certifications_peak", Json.Float pending_peak);
         ])

let of_system ?(name = "run") sys =
  let cfg = System.cfg sys in
  let h = System.history sys in
  let reg = System.metrics sys in
  Json.Obj
    ([
      ("name", Json.String name);
      ("mode", Json.String (Config.mode_name cfg.Config.mode));
      ("seed", Json.Int cfg.Config.seed);
      ("simulated_us", Json.Int (System.now sys));
      ( "throughput_tx_s",
        float_or_null (History.throughput h) );
      ("committed", Json.Int (History.committed_total h));
      ("committed_strong", Json.Int (History.committed_strong h));
      ("aborted_strong", Json.Int (History.aborted_strong h));
      ("abort_rate_pct", Json.Float (100.0 *. History.abort_rate h));
      ( "latency",
        Json.Obj
          [
            ("all", latency_json (History.latency_all h));
            ("causal", latency_json (History.latency_causal h));
            ("strong", latency_json (History.latency_strong h));
          ] );
      ("strong_phases", phases_json reg);
    ]
    @ (match recovery_json reg with
      | None -> []
      | Some r -> [ ("recovery", r) ])
    @ (match persistence_json reg with
      | None -> []
      | Some p -> [ ("persistence", p) ])
    @ (match overload_json reg with
      | None -> []
      | Some o -> [ ("overload", o) ])
    (* self-profiling section, present only when the engine's profiler
       ran ([Config.profile]); dropped trace spans likewise surface only
       when the bounded span buffer actually overflowed — both gates
       keep non-profiled golden artifacts byte-identical *)
    @ (let p = Sim.Engine.prof (System.engine sys) in
       if Sim.Prof.total_events p > 0 then
         [ ("profile", Sim.Prof.to_json p) ]
       else [])
    @ (let dropped = Sim.Trace.dropped (System.trace sys) in
       if dropped > 0 then [ ("trace_dropped", Json.Int dropped) ] else [])
    @ [ ("metrics", Metrics.to_json reg) ])

(* ------------------------------------------------------------------ *)
(* Text reporters: the artifact's numbers for the harness output.      *)

let pp_opt_ms ppf = function
  | None -> Fmt.pf ppf "%8s" "-"
  | Some v -> Fmt.pf ppf "%8.2f" (ms_of_us v)

let pp_phase_breakdown ppf sys =
  let reg = System.metrics sys in
  match phases_of reg with
  | [] -> ()
  | phases ->
      Fmt.pf ppf "  strong-transaction phase breakdown (ms):@.";
      Fmt.pf ppf "    %-14s %8s %8s %8s %8s %8s@." "phase" "count" "mean"
        "p50" "p90" "p99";
      List.iter
        (fun (phase, h) ->
          Fmt.pf ppf "    %-14s %8d %a %a %a %a@." phase (Metrics.h_count h)
            pp_opt_ms (Metrics.h_mean h) pp_opt_ms
            (Metrics.h_percentile h 50.0)
            pp_opt_ms
            (Metrics.h_percentile h 90.0)
            pp_opt_ms
            (Metrics.h_percentile h 99.0))
        phases

(* Top-N hot paths from the engine's self-profiler; silent when the run
   was not profiled. *)
let pp_hot_paths ?n ppf sys =
  let p = Sim.Engine.prof (System.engine sys) in
  if Sim.Prof.total_events p > 0 then Sim.Prof.pp_top ?n ppf p

let pp_uniformity_lag ppf sys =
  let reg = System.metrics sys in
  (match Metrics.histograms_matching reg "uniformity_lag_probe_us" with
  | [ (_, h) ] when Metrics.h_count h > 0 ->
      Fmt.pf ppf
        "  uniformity lag (knownVec - uniformVec, probed every %d us): mean \
         %a ms, p90 %a ms, max %a ms@."
        Config.metrics_probe_us pp_opt_ms (Metrics.h_mean h)
        pp_opt_ms
        (Metrics.h_percentile h 90.0)
        pp_opt_ms
        (Option.map float_of_int (Metrics.h_max h))
  | _ -> ());
  match Metrics.gauges_matching reg "uniformity_lag_us" with
  | [] -> ()
  | gauges ->
      (* peak lag per DC, maximum over its partitions *)
      let per_dc = Hashtbl.create 8 in
      List.iter
        (fun (labels, g) ->
          match List.assoc_opt "dc" labels with
          | None -> ()
          | Some dc ->
              let cur =
                Option.value ~default:0.0 (Hashtbl.find_opt per_dc dc)
              in
              Hashtbl.replace per_dc dc (Float.max cur (Metrics.gauge_max g)))
        gauges;
      let dcs =
        List.sort compare
          (Hashtbl.fold (fun dc v acc -> (dc, v) :: acc) per_dc [])
      in
      Fmt.pf ppf "    peak lag per DC:%a@."
        (Fmt.list ~sep:Fmt.nop (fun ppf (dc, v) ->
             Fmt.pf ppf "  dc%s %.1f ms" dc (ms_of_us v)))
        dcs
