(** CI perf-regression gate over profiled bench artifacts.

    Compares a bench artifact carrying a ["profile"] section (or a bare
    profile object) against a checked-in baseline. Per-label
    words-per-event budgets, budgeted-label presence and attribution
    coverage are hard failures — they are deterministic under the fixed
    simulation seed. Wall-clock throughput and unbudgeted new labels are
    advisory warnings only. *)

type result = { failures : string list; warnings : string list }

(** [true] iff there are no hard failures (warnings allowed). *)
val ok : result -> bool

(** [check ~baseline ~artifact] evaluates every gate; order of messages
    follows baseline/artifact order and is deterministic. *)
val check : baseline:Json.t -> artifact:Json.t -> result

(** Derive a fresh baseline from a measured artifact: each measured
    words-per-event of a label carrying at least [min_events] events
    (default 500) becomes a budget inflated by [headroom_pct] (default
    5%), and the advisory events/sec floor is [previous]'s (the
    baseline being replaced) when it has one, else half the measured
    rate: one run's wall-clock rate is too noisy to re-pin it by.
    Labels below the floor are neither budgeted nor warned about — with
    a handful of events, words/event swings wildly on unrelated changes
    and carries no regression signal. *)
val baseline_of_artifact :
  ?headroom_pct:float ->
  ?tolerance_pct:float ->
  ?min_coverage_pct:float ->
  ?min_events:int ->
  ?previous:Json.t ->
  Json.t ->
  Json.t

(** Human-readable rendering: warnings, then failures, then a verdict
    line. *)
val pp_result : Format.formatter -> result -> unit
