(** The decided log of a certification group member (§6.3): the decided
    transactions, the indexes the check of Algorithm A8 runs against,
    the prune floor, and the queue that delivers committed transactions
    in strong-timestamp order (Algorithm A9 line 26). The member
    protocol around it — ballots, prepared entries, the delivery gate,
    leader recovery — is {!Cert}'s. *)

type t

(** [ops_slice] keeps a transaction's operations at this group. *)
val create :
  conflict:Config.conflict_spec ->
  ops_slice:(Types.opsmap -> Types.opdesc list) ->
  dcs:int ->
  t

val find : t -> Types.tid -> Msg.decided_strong option
val mem : t -> Types.tid -> bool
val count : t -> int
val to_list : t -> Msg.decided_strong list

(** Highest strong timestamp of a decided commit; 0 if none. *)
val max_commit_ts : t -> int

(** Record a decision, indexing a commit and queueing it for delivery
    when above the frontier; [false] (and no change) if the transaction
    was already decided. *)
val add : t -> Msg.decided_strong -> bool

(** The decided-log side of Algorithm A8 for a transaction with
    operations [ops] at this group: commit iff [snap] includes every
    conflicting decided commit and cannot miss a pruned one, with [lc]
    raised above every conflicting commit's clock. *)
val check :
  t -> ops:Types.opdesc list -> snap:Vclock.Vc.t -> lc:int -> bool * int

val last_delivered : t -> int

(** Advance the frontier to [ts] and dequeue, as one batch in delivery
    order, every committed transaction at or below it. *)
val deliver_upto : t -> int -> Types.tx_rec list

(** Advance the frontier to the highest queued strong timestamp below
    [gate] and dequeue the batch {!deliver_upto} would; [None] (and no
    change) when nothing queued is below [gate]. *)
val deliver_below : t -> gate:int -> (int * Types.tx_rec list) option

val prune_margin_us : int

(** Garbage-collect the decisions every live snapshot already contains:
    strong timestamp [prune_margin_us] below [floor] (the lowest
    frontier of the members that may still need them) and, when given,
    commit vector [covered]. *)
val prune : ?covered:(Vclock.Vc.t -> bool) -> t -> floor:int -> unit

(** Forget every decision and queued delivery; with [delivered], seed
    the frontier there and raise the prune floor to it. *)
val reset : ?delivered:int -> t -> unit
