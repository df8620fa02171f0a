(** Per-run metrics registry: labelled counters, gauges and log-bucketed
    streaming histograms with a deterministic snapshot and JSON
    rendering.

    Histograms hold geometric buckets (8 per octave), so memory is
    bounded regardless of observation count and percentile estimates are
    within one bucket width (~9%) of exact; tracked min/max make the
    tails exact. Handle lookups intern on (name, labels): the same pair
    always returns the same object, so components cache handles and the
    hot path is a plain increment. *)

type t

type labels = (string * string) list

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> ?labels:labels -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> ?labels:labels -> string -> gauge

(** Set the current level; the all-time maximum is tracked. *)
val set : gauge -> float -> unit

(** Delta update for gauges tracking a level (queue depths). *)
val gauge_add : gauge -> float -> unit

val gauge_value : gauge -> float
val gauge_max : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : t -> ?labels:labels -> string -> histogram

(** Record one observation (values [<= 0] share a dedicated bucket). *)
val observe : histogram -> int -> unit

val h_count : histogram -> int
val h_sum : histogram -> float
val h_mean : histogram -> float option
val h_min : histogram -> int option
val h_max : histogram -> int option

(** Estimated percentile ([p] in [0, 100]); [None] when empty. p0 and
    p100 are the exact tracked min/max. *)
val h_percentile : histogram -> float -> float option

(** Non-empty buckets as [(index, lower, upper, count)]; index [-1] is
    the bucket of non-positive observations. *)
val h_buckets : histogram -> (int * float * float * int) list

(** Bounds of bucket [i]: values in [\[lower, upper)] land in it. *)
val bucket_bounds : int -> float * float

(** {1 Lookup and export} *)

(** All label sets registered under a metric name, sorted. *)
val histograms_matching : t -> string -> (labels * histogram) list

val counters_matching : t -> string -> (labels * counter) list
val gauges_matching : t -> string -> (labels * gauge) list

type snapshot_entry =
  | S_counter of { name : string; labels : labels; value : int }
  | S_gauge of { name : string; labels : labels; value : float; max : float }
  | S_histogram of {
      name : string;
      labels : labels;
      count : int;
      mean : float;
      p50 : float;
      p90 : float;
      p99 : float;
      min : int;
      max : int;
    }

(** Deterministic (sorted by name, then labels) view of the registry. *)
val snapshot : t -> snapshot_entry list

(** The snapshot as [{"counters": [...], "gauges": [...],
    "histograms": [...]}]. *)
val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
