(** Offline checker for Partial Order-Restrictions consistency (§B).

    Verifies, over a fully recorded history:
    - CausalityPreservation: commit vectors respect the session order
      and dominate snapshot vectors;
    - ReturnValueConsistency: every read returns the value determined
      by the reader's snapshot (plus its own earlier writes);
    - ConflictOrdering: conflicting committed strong transactions are
      ordered, the earlier contained in the later's snapshot, with
      distinct strong timestamps (Property 5).

    Eventual Visibility is a liveness property over replica state and
    is checked by {!System.check_convergence}. *)

type result = {
  violations : string list;
  transactions : int;
  reads_checked : int;
  conflicts_checked : int;
}

val ok : result -> bool

(** [check ?preloads cfg txns] verifies the PoR axioms. [preloads] is
    the initial database state (below every snapshot). *)
val check :
  ?preloads:Types.write list ->
  ?unacked:(Types.write list * Vclock.Vc.t * Crdt.tag) list ->
  Config.t ->
  History.txn_record list ->
  result

val pp_result : result Fmt.t
