(** Cooperative fibers over the simulation engine (OCaml 5 effects).

    Fibers let workload code block in direct style on simulated events:
    a fiber performing {!await} or {!sleep} suspends, the engine keeps
    running other events, and the fiber resumes when the ivar is filled
    or the delay elapses.

    An ivar has at most one waiter, the fiber that awaits it, as a
    client session has one call in flight. The waiting fiber parks its
    continuation on the ivar itself, and the fill wakes it through a
    resume function built once at spawn, so a round trip through an
    ivar allocates a few words and no closure. *)

module Ivar : sig
  (** Single-assignment cell with at most one waiting fiber. *)
  type 'a t

  val create : unit -> 'a t

  (** Fill the cell and wake its waiting fiber, if any. The fiber runs
      after the filling event, not as a fresh event: at the same
      simulated instant, once the filler's handler has returned (never
      re-entrantly inside it) and before any other event queued for
      that instant, and it adds no {!Engine.executed_events}. See
      {!Engine.defer}. Raises if already filled. *)
  val fill : Engine.t -> 'a t -> 'a -> unit
end

(** Block the current fiber until the ivar is filled; on an ivar
    already filled, until the current event ends. Raises
    [Invalid_argument] outside a fiber, or when another fiber already
    waits on the ivar. *)
val await : 'a Ivar.t -> 'a

(** Suspend the current fiber for the given simulated microseconds.
    Raises [Invalid_argument] outside a fiber. *)
val sleep : int -> unit

(** Start a fiber. The body may use {!await} and {!sleep}. [label]
    attributes the fiber's start and its sleep expiries for profiling
    (default: inherited from the spawning event, resolved at spawn);
    ivar resumptions run under the filling event's label. *)
val spawn : Engine.t -> ?label:Prof.label -> (unit -> unit) -> unit
