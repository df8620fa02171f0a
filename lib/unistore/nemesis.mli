(** Nemesis: scheduled fault injection against a running deployment.

    A schedule is a time-ordered list of adversities — DC crashes,
    heal-able partitions, gray links, loss-rate changes — injected while
    the workload runs. Schedules are scripted or seeded-random, and
    replay deterministically. End schedules with [Heal_all] so the
    liveness assertions (pending strong transactions decide, correct DCs
    converge) apply. *)

type event =
  | Crash_dc of int  (** whole-DC failure (permanent unless recovered) *)
  | Recover_dc of int
      (** restart a crashed DC: {!System.recover_dc} drives its
          replicas through snapshot + log catch-up rejoin *)
  | Partition of int * int  (** cut the bidirectional link between DCs *)
  | Heal of int * int
  | Heal_all  (** heal every partition, restore every degraded link *)
  | Degrade of { src : int; dst : int; extra_us : int }  (** gray link *)
  | Restore of { src : int; dst : int }
  | Set_drop of float  (** change the steady-state loss rate *)
  | Crash_node of { dc : int; part : int }
      (** kill one replica process; its disk survives
          ([Config.persistence] runs only) *)
  | Restart_node of { dc : int; part : int }
      (** restart a crashed node from its own disk: snapshot + WAL
          replay, then suffix pull — no WAN snapshot transfer. Do not
          mix with [Crash_dc] of the same DC in one schedule: the DC
          domain destroys the disks. *)
  | Slow_disk of { dc : int; part : int; factor : int }
      (** gray disk: multiply fsync latency / divide bandwidth *)
  | Restore_disk of { dc : int; part : int }

type step = { at_us : int; ev : event }
type schedule = step list

val pp_event : Format.formatter -> event -> unit
val pp_step : Format.formatter -> step -> unit

(** {2 Serialization}

    The corpus / repro interchange format of the exploration harness
    ([lib/explore]): one JSON object per step with an ["ev"]
    discriminator, replayable byte-deterministically. *)

val schedule_to_json : schedule -> Sim.Json.t
val schedule_of_json : Sim.Json.t -> (schedule, string) result

(** {2 Validation}

    [validate cfg sched] rejects the documented schedule footguns as
    errors: steps out of time order or at negative times; partitions on
    a topology with [dcs > 2f+1] (split-brain certification);
    node-level events without [Config.persistence]; [Crash_node] /
    [Restart_node] mixed with a [Crash_dc] of the same DC (the DC
    failure domain destroys the disks); [Restart_node] without a
    prior [Crash_node] of the same node; and node crashes or
    [Recover_dc] under the REDBLUE centralized service. {!inject} runs
    it and raises [Invalid_argument] on any error. *)
val validate : Config.t -> schedule -> (unit, string) result

(** Schedule every step onto the system's engine (call before
    {!System.run}). Validates the schedule first ({!validate}) and
    raises [Invalid_argument] on a rejected one. *)
val inject : System.t -> schedule -> unit

(** Combine scripted schedule fragments into one time-ordered
    schedule. *)
val merge : schedule list -> schedule

(** Cut the [rejoiner] <-> [peer] link for \[[from_us], [until_us]\]:
    the peer cannot answer snapshot requests or pulls, so the rejoin
    must drop it from the round and finish with the others. *)
val partition_during_sync :
  rejoiner:int -> peer:int -> from_us:int -> until_us:int -> schedule

(** Crash a polled sibling mid-round. *)
val crash_during_sync : peer:int -> at_us:int -> schedule

(** Rolling restart of one whole DC: crash/restart each partition of
    [dc] in turn, [down_us] down per node, [stagger_us] between node
    starts (make it > [down_us] so at most one node of the DC is ever
    down). *)
val rolling_restart :
  dc:int -> partitions:int -> start_us:int -> down_us:int -> stagger_us:int ->
  schedule

(** Supervisor restart loop: crash/restart the same node [cycles]
    times, [down_us] down per cycle, one cycle every [period_us]. *)
val restart_loop :
  dc:int -> part:int -> start_us:int -> cycles:int -> down_us:int ->
  period_us:int ->
  schedule

(** Gray-disk fault on one node for \[[from_us], [until_us]\]. *)
val gray_disk :
  dc:int -> part:int -> factor:int -> from_us:int -> until_us:int -> schedule

(** Deterministic seeded schedule: at most [max_crashes] DC crashes
    (default 1), up to [max_partitions] transient partitions (default 2)
    and [max_degrades] gray links (default 2), all within the middle of
    the run, closed by [Heal_all] at 3/4 of [horizon_us]. With
    [max_recoveries] > 0 (default 0), that many crashed DCs recover a
    bounded interval after their crash — crash/recover cycles for
    rejoin testing. With [max_sync_partitions] / [max_sync_degrades] > 0
    (defaults 0), each crash/recover cycle additionally gets that many
    partitions / gray links between the recovering DC and random sync
    peers, cut inside the crash→recover window and lasting until the
    final [Heal_all] — adversity aimed at the recovery itself. With
    [max_node_crashes] > 0 (default 0; persistence runs only), that
    many node crash/restart cycles hit random replicas (partition drawn
    below [node_partitions], default 1). All defaults draw nothing from
    the Rng (and new draws come after every pre-existing one), so
    existing seeds keep their schedules. *)
val random_schedule :
  seed:int ->
  dcs:int ->
  horizon_us:int ->
  ?max_crashes:int ->
  ?max_partitions:int ->
  ?max_degrades:int ->
  ?max_recoveries:int ->
  ?max_sync_partitions:int ->
  ?max_sync_degrades:int ->
  ?max_node_crashes:int ->
  ?node_partitions:int ->
  unit ->
  schedule
