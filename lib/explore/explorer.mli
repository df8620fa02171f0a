(** Swarm exploration of the fault space.

    Each trial draws a {e fault-mix profile} — which nemesis event
    kinds are enabled and with what caps, persistence on/off, admission
    control on/off, open- or closed-loop workload — then a seed, runs a
    bounded scenario (workload stops at the schedule's [Heal_all],
    simulation runs a settle quarter past it), and evaluates the four
    {!Oracle} verdicts. Everything derives from the root seed and
    replays byte-deterministically.

    A trial's {e fingerprint} summarizes which code paths and fault
    mechanisms it exercised: the simulator's per-label profile coverage
    (DC prefixes stripped), per-cause network-drop indicators, a
    whitelist of protocol counters, and any failing oracle. A trial is
    {e novel} when it contributes a feature no earlier trial produced;
    novel trials form the corpus. *)

type profile = {
  p_dcs : int;
  p_f : int;
  p_partitions : int;  (** logical store partitions *)
  p_persistence : bool;
  p_admission : int;  (** [admission_max_pending]; 0 = no shedding *)
  p_lossy : bool;  (** steady-state loss/dup/degrade vs clean links *)
  p_open_rate : float option;
      (** open-loop arrival rate (txn/s); [None] = closed loop *)
  p_clients : int;  (** closed-loop clients per DC *)
  p_strong_ratio : float;
  p_keys : int;
  p_max_crashes : int;  (** DC crashes; never exceeds [p_f] *)
  p_max_recoveries : int;
  p_max_partitions : int;
  p_max_degrades : int;
  p_max_sync_partitions : int;
  p_max_sync_degrades : int;
  p_max_node_crashes : int;  (** only with [p_persistence] *)
  p_horizon_us : int;
}

val profile_to_json : profile -> Sim.Json.t
val profile_of_json : Sim.Json.t -> (profile, string) result

(** Draw a profile; all constraints that {!Unistore.Nemesis.validate}
    enforces hold by construction (node crashes imply persistence and
    exclude DC crashes; partitions only on [dcs = 2f+1] topologies; DC
    crashes capped at [f]). *)
val draw : Sim.Rng.t -> horizon_us:int -> profile

(** The profile's seeded schedule
    ({!Unistore.Nemesis.random_schedule}). *)
val schedule_of : profile -> seed:int -> Unistore.Nemesis.schedule

(** Build the system, inject [sched], run the profile's workload to the
    horizon and evaluate all oracles. Raises [Invalid_argument] if
    [sched] fails {!Unistore.Nemesis.validate}. *)
val run_with :
  profile ->
  seed:int ->
  sched:Unistore.Nemesis.schedule ->
  Oracle.verdict list * Unistore.System.t

(** {2 Fingerprints} *)

val fingerprint : string list -> string

(** {2 Trials and exploration} *)

type trial = {
  t_index : int;
  t_seed : int;
  t_profile : profile;
  t_schedule : Unistore.Nemesis.schedule;
  t_verdicts : Oracle.verdict list;
  t_features : string list;
  t_fingerprint : string;
  t_novel : bool;
}

type outcome = {
  o_trials : trial list;
  o_corpus : trial list;  (** novel trials, in discovery order *)
  o_failures : trial list;  (** trials with a failing oracle *)
}

val run_trial : index:int -> profile -> seed:int -> trial

(** [explore ~trials ~seed ()] runs the swarm loop; [on_trial] (if any)
    is called after each trial with novelty already decided. *)
val explore :
  ?horizon_us:int ->
  ?on_trial:(trial -> unit) ->
  trials:int ->
  seed:int ->
  unit ->
  outcome

(** {2 Interchange}

    A {e case} is the replayable core of a corpus entry or repro:
    profile, seed and the explicit schedule (explicit so shrunk
    schedules, which no longer match the seed's generated one,
    replay). *)

type case = {
  c_profile : profile;
  c_seed : int;
  c_schedule : Unistore.Nemesis.schedule;
}

val case_of_trial : trial -> case

(** Replay a case: {!run_with} on its stored schedule. *)
val replay : case -> Oracle.verdict list * Unistore.System.t

(** [true] iff replaying [sched] under the case's profile and seed
    fails oracle [oracle]. Schedules rejected by validation count as
    not failing — the shrinker's candidate predicate. *)
val schedule_fails :
  case -> oracle:string -> Unistore.Nemesis.schedule -> bool

val trial_to_json : trial -> Sim.Json.t

(** Repro document for a shrunk failure: kind ["repro"], the failing
    oracle and its detail, and the minimal schedule. *)
val repro_to_json : case -> failing:Oracle.verdict -> Sim.Json.t

(** Parse the replayable core of either document kind (corpus entry or
    repro). *)
val case_of_json : Sim.Json.t -> (case, string) result
