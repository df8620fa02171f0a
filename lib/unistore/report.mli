(** Machine-readable run reports.

    Renders one completed experiment run to the JSON document the bench
    harness writes as a [BENCH_*.json] artifact: throughput, latency
    percentiles per transaction class, abort rate, the
    strong-transaction phase breakdown and the full metrics snapshot.
    Every field derives from simulated time and deterministic counters,
    so a fixed seed yields a byte-identical document. *)

(** Latency summary of a raw sample set: [{count, mean_ms, p50_ms,
    p90_ms, p99_ms}] with [null] statistics when the set is empty. *)
val latency_json : Sim.Stats.sample_set -> Sim.Json.t

(** The full report for a run: name, mode, seed, simulated duration,
    throughput, commit/abort counts, latency summaries ([all] /
    [causal] / [strong]), [strong_phases], and the metrics snapshot.
    When the run was profiled ([Config.profile]) a ["profile"] section
    carries the per-label event/allocation breakdown; when the bounded
    trace buffer overflowed, ["trace_dropped"] counts the lost spans.
    Both are omitted otherwise, keeping non-profiled artifacts
    byte-identical. *)
val of_system : ?name:string -> System.t -> Sim.Json.t

(** Print the strong-transaction phase breakdown (per-phase count and
    mean/p50/p90/p99 milliseconds); prints nothing when no strong
    transaction ran. *)
val pp_phase_breakdown : Format.formatter -> System.t -> unit

(** Print the top-[n] (default 12) hot-path table from the engine's
    self-profiler: per-label event counts, allocation words per event
    and estimated wall share; prints nothing for unprofiled runs. *)
val pp_hot_paths : ?n:int -> Format.formatter -> System.t -> unit

(** Print the uniformity-lag probe summary (knownVec − uniformVec):
    aggregate histogram statistics plus the peak lag per DC; prints
    nothing when the probes were disabled. *)
val pp_uniformity_lag : Format.formatter -> System.t -> unit
