(** Cooperative fibers over the simulation engine (OCaml 5 effects).

    Fibers let workload code block in direct style on simulated events:
    a fiber performing {!await} or {!sleep} suspends, the engine keeps
    running other events, and the fiber resumes when the ivar is filled
    or the delay elapses.

    A suspended fiber parks itself where it waits: an ivar that one
    fiber awaits and nothing else holds that fiber's continuation
    directly, and its fill wakes the fiber through a resume function
    built once at spawn, so a round trip through an ivar allocates a
    few words and no closure. *)

module Ivar : sig
  (** Single-assignment cell. *)
  type 'a t

  val create : unit -> 'a t

  (** Fill the cell and wake all waiters, in registration order. The
      waiters run after the filling event, not as fresh events: at the
      same simulated instant, once the filler's handler has returned
      (never re-entrantly inside it) and before any other event queued
      for that instant, and they add no {!Engine.executed_events}. See
      {!Engine.defer}. Raises if already filled. *)
  val fill : Engine.t -> 'a t -> 'a -> unit

  val is_filled : 'a t -> bool
  val peek : 'a t -> 'a option

  (** [upon eng iv k] runs [k v] once [iv] holds [v]: after the filling
      event, as {!fill} describes, or — if [iv] is already filled — after
      the current event. The profiler accounts [k]'s work under the
      label of the event it runs in. *)
  val upon : Engine.t -> 'a t -> ('a -> unit) -> unit
end

(** Block the current fiber until the ivar is filled; on an ivar
    already filled, until the current event ends. Raises
    [Invalid_argument] outside a fiber. *)
val await : 'a Ivar.t -> 'a

(** Suspend the current fiber for the given simulated microseconds.
    Raises [Invalid_argument] outside a fiber. *)
val sleep : int -> unit

(** Start a fiber. The body may use {!await} and {!sleep}. [label]
    attributes the fiber's start and its sleep expiries for profiling
    (default: inherited from the spawning event, resolved at spawn);
    ivar resumptions run under the filling event's label. *)
val spawn : Engine.t -> ?label:Prof.label -> (unit -> unit) -> unit

(** Await every ivar in the list, returning values in list order. *)
val await_all : 'a Ivar.t list -> 'a list
