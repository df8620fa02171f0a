(** Deterministic discrete-event simulation engine.

    Simulated time is [int] microseconds starting at 0. Events scheduled
    for the same instant fire in scheduling order. An event is a
    function and its argument: a thunk applied to [()] ({!schedule}),
    or a shared function applied to per-event data ({!schedule_call}),
    which spares the caller a closure per event. Work queued with
    {!defer} runs at the end of the executing event, as part of it.

    Every event carries a {!Prof.label} for self-profiling; an event
    scheduled without one inherits the label of the event currently
    executing (so labelling roots attributes whole cascades). Labels
    never affect event ordering. *)

type t

val create : ?seed:int -> unit -> t

(** Current simulated time in microseconds. *)
val now : t -> int

(** The engine's root RNG; derive per-component streams with
    {!Rng.split}. *)
val rng : t -> Rng.t

val executed_events : t -> int
val pending_events : t -> int

(** The engine's profiler (one per engine, disabled by default). *)
val prof : t -> Prof.t

(** Label of the event currently executing ([Prof.none] outside the
    run loop). *)
val current_label : t -> Prof.label

(** Wall-clock seconds spent inside {!run} so far — the engine-only
    window the [sim_events_per_sec] artifact line divides by. *)
val run_wall_seconds : t -> float

(** Schedule a thunk [delay] microseconds from now. [label] attributes
    the event for profiling; [Prof.none] (the default) inherits the
    scheduling event's label. *)
val schedule : t -> ?label:Prof.label -> delay:int -> (unit -> unit) -> unit

(** Schedule a thunk at an absolute time (clamped to now if in the past). *)
val schedule_at :
  t -> ?label:Prof.label -> time:int -> (unit -> unit) -> unit

(** [schedule_call t ~time run arg] schedules [run arg] at an absolute
    time, exactly as [schedule_at t ~time (fun () -> run arg)] would —
    same place in the event order, same label — but without a closure
    per event: a component that queues many events through one
    function allocates [run] once and passes each event's data as
    [arg]. The network schedules its message arrivals this way. *)
val schedule_call :
  t -> ?label:Prof.label -> time:int -> ('a -> unit) -> 'a -> unit

(** {2 Held events}

    A component may keep work that would be an event in a structure of
    its own and apply it lazily, when something next reads the state it
    changes, provided it applies it where the event would have run.
    [ticket t] takes that place: the sequence number {!schedule_at}
    would draw now, which breaks ties on time. [schedule_ticket] queues
    an event at a taken place (for held work that turns out to need an
    event after all), and [passed t ~time ~ticket] tells whether an
    event at that place would already have run — inside an event, iff
    it orders before the executing one. *)

val ticket : t -> int

val schedule_ticket :
  t -> ?label:Prof.label -> time:int -> ticket:int -> (unit -> unit) -> unit

val passed : t -> time:int -> ticket:int -> bool

(** [defer t f] runs [f] right after the executing event's thunk
    returns: at the same instant, before the next queued event, as part
    of that event — it adds nothing to {!executed_events}, and the
    profiler accounts its work under the event's label (events [f]
    schedules inherit that label). Defers run in FIFO order, including
    ones queued by a running defer. Outside the run loop, [f] is
    scheduled as a fresh event at the current instant. Fiber wakeups
    use it so resuming a fiber costs no event of its own. *)
val defer : t -> (unit -> unit) -> unit

(** Stop the run loop after the current event (and its defers). *)
val stop : t -> unit

(** Execute events until the queue drains, [stop] is called, or the next
    event is past [until]. *)
val run : ?until:int -> t -> unit

(** [every t ~period ?phase f] runs [f] every [period] microseconds
    (first run after [phase]) for as long as [f] returns [true]. *)
val every :
  t -> ?label:Prof.label -> period:int -> ?phase:int -> (unit -> bool) -> unit
