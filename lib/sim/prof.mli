(** Simulator self-profiling: per-label event attribution.

    Every engine event carries a hierarchical attribution label (e.g.
    ["dc1/replica/handle:Replicate"], ["wal/fsync"]); events scheduled
    without one inherit the scheduling event's label. When enabled, the
    engine accrues per label: exact event counts, exact minor-heap
    allocation ([Gc.minor_words ()] around each handler — deterministic
    under a fixed seed, so words/event can be gated hard in CI), and
    sampled wall-clock time (every [sample_every]-th event, bounding
    overhead).

    Disabled profiling costs one branch per event: {!label} interns
    nothing and returns {!none}, and no Gc or clock calls are made. *)

type t

(** Interned label handle. [none] (= "other") inherits the scheduler's
    label; events that never meet a labelled ancestor are counted under
    ["other"], not dropped. *)
type label = int

val none : label

(** A fresh, disabled profiler ([Engine.create] makes one per engine). *)
val create : unit -> t

(** Start accounting. [sample_every] is the wall-clock sampling period
    in events (default 64; must be >= 1). *)
val enable : ?sample_every:int -> t -> unit

val is_on : t -> bool

(** Replace the wall clock (default [Unix.gettimeofday]); tests inject
    a deterministic one. Also read by [Engine.run]'s window timing. *)
val set_clock : t -> (unit -> float) -> unit

(** Current wall-clock reading (seconds). *)
val wall : t -> float

val sample_every : t -> int

(** Intern a label. Returns {!none} (interning nothing) while the
    profiler is disabled, so instrumentation sites call it
    unconditionally. *)
val label : t -> string -> label

(** Number of interned labels (0 until first enabled). *)
val interned : t -> int

(** Engine hook: run one event handler under [label]'s account. *)
val account : t -> label -> (unit -> unit) -> unit

(** Events accounted while enabled. *)
val total_events : t -> int

(** Events that allocated 64 Ki words or more — one-off bulk work such
    as a snapshot install, not hot-path handler cost. They are counted
    here instead of under their label, so a label's words/event stays a
    per-event figure. *)
val noise_events : t -> int

(** Total words allocated by the {!noise_events}. *)
val noise_words : t -> float

(** Events carrying a label other than ["other"]. *)
val attributed_events : t -> int

(** [100 * attributed / total] (100 when no events ran). *)
val coverage_pct : t -> float

type entry = {
  e_label : string;
  e_events : int;
  e_minor_words : float;
  e_major_words : float;  (** always 0: only minor words are probed *)
  e_wall_samples : int;
  e_wall_s : float;
      (** raw sampled seconds; multiply by [sample_every] for the
          wall-clock estimate *)
}

(** Allocated words per event under this label. *)
val words_per_event : entry -> float

(** Labels with at least one event, busiest first (deterministic). *)
val entries : t -> entry list

(** Merge per-system entry lists, summing by label. *)
val merge : entry list list -> entry list

val entry_json : sample_every:int -> entry -> Json.t

(** The profile document gated by [bin/perfcheck.exe]: sampling period,
    totals, coverage, bulk-event counters, and the per-label table. *)
val entries_to_json :
  ?noise_events:int ->
  ?noise_words:float ->
  sample_every:int ->
  total_events:int ->
  entry list ->
  Json.t

val to_json : t -> Json.t

(** Brendan-Gregg folded-stack rendering ('/' label segments become ';'
    frames): one "[frames] [weight]" line per label, loadable by
    speedscope / flamegraph.pl. Weights are scaled wall-clock estimates
    (microseconds) when wall samples exist, exact event counts
    otherwise. *)
val folded_of_entries : sample_every:int -> entry list -> string

val folded : t -> string

(** Top-[n] hot-path table (default 12). *)
val pp_top : ?n:int -> Format.formatter -> t -> unit
