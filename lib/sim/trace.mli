(** Structured event tracing for simulations: a bounded in-memory event
    log with simulated timestamps, filters, and a text timeline. *)

type event = {
  ev_time : int;  (** simulated microseconds; a span's start time *)
  ev_dur : int;  (** span duration; 0 for instant events *)
  ev_source : string;
  ev_kind : string;
  ev_detail : string;
}

type t

(** [create ~clock ~enabled ()] makes a trace reading timestamps from
    [clock]. A disabled trace ignores every emit. *)
val create : ?capacity:int -> clock:(unit -> int) -> enabled:bool -> unit -> t

(** A shared always-off trace. *)
val disabled : t

val enabled : t -> bool
val emit : t -> source:string -> kind:string -> string -> unit

(** Record a duration event covering [\[start, now\]] (transaction
    phases, certification waits). *)
val emit_span : t -> source:string -> kind:string -> start:int -> string -> unit

val emitf : t -> source:string -> kind:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
val length : t -> int

(** Events discarded after reaching capacity. *)
val dropped : t -> int

(** Events in emission order, optionally filtered. *)
val events : ?source:string -> ?kind:string -> t -> event list

val count : ?source:string -> ?kind:string -> t -> int
val between : t -> start:int -> stop:int -> event list
val pp_event : event Fmt.t

(** Event counts per kind, most frequent first. *)
val summary : t -> (string * int) list

(** The trace as a Chrome trace-event document (Perfetto-loadable): one
    named track per distinct [ev_source]; spans as duration events,
    instants as instant events. *)
val chrome_json : t -> Json.t
