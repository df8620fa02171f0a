(** Always-on oracles for the adversarial schedule explorer.

    Every explored scenario ends with the same four verdicts, evaluated
    at quiescence (after the schedule's final [Heal_all] plus a settle
    period):

    - {b por}: the offline PoR checker ({!Unistore.Checker.check}) over
      the full recorded history — causality preservation, return-value
      consistency, conflict ordering.
    - {b convergence}: every correct data center stores the same keys
      with the same values ({!Unistore.System.check_convergence}).
    - {b durability}: every client-acked write is readable at every
      correct, fully-synced data center after all crash/restart cycles
      heal — the generalized power-cut assertion of the persistence
      tests. Causal transactions acked by a DC that the schedule
      whole-DC-crashes are exempt (the DC failure domain destroys the
      disks, and causal acks do not wait for replication); strong
      transactions are never exempt (certification replicates them
      before the ack, and explored schedules crash at most [f] DCs).
    - {b liveness}: quiescence really is quiescence — no strong
      transaction stuck in certification, no data center still syncing,
      no client session with a call outstanding, and no wedged
      follower: no certification member at a correct data center whose
      delivery frontier ({!Unistore.Cert.last_delivered}) trails the
      furthest member of its group by more than a second. *)

type verdict = { oracle : string; pass : bool; detail : string }

val ok : verdict list -> bool
val first_failure : verdict list -> verdict option
val to_json : verdict list -> Sim.Json.t
val pp_verdict : verdict Fmt.t

val por : Unistore.System.t -> verdict
val convergence : Unistore.System.t -> verdict

(** [durability sys ~schedule] needs the injected schedule to compute
    the whole-DC-crash exemption set. *)
val durability :
  Unistore.System.t -> schedule:Unistore.Nemesis.schedule -> verdict

val liveness : Unistore.System.t -> verdict

(** All four, in the order por, convergence, durability, liveness. *)
val all :
  Unistore.System.t -> schedule:Unistore.Nemesis.schedule -> verdict list
