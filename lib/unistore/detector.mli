(** Heartbeat-based Ω failure detector.

    One detector node per data center: it broadcasts {!Msg.Fd_ping} to
    its peers every {!Config.fd_period_us} and suspects any DC silent
    for longer than [detection_delay_us]. Suspicion is local and
    fallible (transient partitions produce false suspicions); when pings
    resume the DC is rehabilitated. [on_suspect] / [on_restore] fire on
    each observer's transitions — {!System} wires them to
    {!Replica.suspect} / {!Replica.unsuspect}. *)

type t

val create :
  Config.t ->
  Sim.Engine.t ->
  Msg.t Net.Network.t ->
  trace:Sim.Trace.t ->
  metrics:Sim.Metrics.t ->
  on_suspect:(observer:int -> dc:int -> unit) ->
  on_restore:(observer:int -> dc:int -> unit) ->
  t

(** [dc] crashed: eagerly retire its ping/check loops (incarnation-epoch
    bump), so a pre-crash timer cannot fire against a recovered
    incarnation after a fast crash→recover cycle. *)
val crash : t -> dc:int -> unit

(** [dc] recovered from a crash: restart its detector node with an
    all-clear view and re-armed ping/check loops. Peers rehabilitate it
    on their own once its pings resume. *)
val revive : t -> dc:int -> unit

(** Total suspicion transitions (including re-suspicions). *)
val suspicions : t -> int

(** Suspicions of DCs that had not actually crashed. *)
val false_suspicions : t -> int

(** Rehabilitations (a suspected DC's pings resumed). *)
val restorations : t -> int
