(** Transaction certification service, group-member side (Algorithms
    A9–A10; the fault-tolerant commit of Chockler & Gotsman integrated
    with the causal protocol, §6.3).

    Each partition's certification group is formed by its sibling
    replicas across data centers (REDBLUE instead runs one group of
    per-DC service nodes). One member leads; the leader certifies
    transactions against prepared state and its {!Decided_log}, members
    accept under a ballot, committed updates are delivered in
    strong-timestamp order with no gaps, and leadership recovers across
    data-center failures.

    The module is parameterised by a [ctx] of closures so it has no
    dependency on the replica that embeds it. The coordinator side of
    certification (CERTIFY, Algorithm A7) lives in [Strong_coord]. *)

type cert_result =
  | Decided of bool * Types.tx_rec
      (** decision and its record ({!Msg.decided_record}): commit
          vector, Lamport clock *)
  | Unknown  (** a quorum does not know the transaction (recovery only) *)

type ctx = {
  x_dc : int;
  x_group : int;  (** partition id, or the REDBLUE pseudo-group id *)
  x_dcs : int;
  x_quorum : int;
  x_conflict : Config.conflict_spec;
      (** the deployment's conflict relation ([Config.txs_conflict]) *)
  x_ops_slice : Types.opsmap -> Types.opdesc list;
      (** a transaction's operations relevant to this group *)
  x_clock : unit -> int;
  x_now : unit -> int;
  x_send : Msg.addr -> Msg.t -> unit;
  x_self : unit -> Msg.addr;
  x_member : int -> Msg.addr;  (** dc -> this group's member *)
  x_dc_of : Msg.addr -> int;
  x_deliver : Types.tx_rec list -> strong_ts:int -> unit;
      (** DELIVER_UPDATES upcall, in strong-timestamp order *)
  x_at_clock : int -> (unit -> unit) -> unit;
  x_certify :
    caller:Msg.cert_caller ->
    Msg.strong_tx ->
    lc:int ->
    k:(cert_result -> unit) ->
    unit;
      (** re-run coordinator certification (RETRY / recovery) of a
          prepared entry's transaction, at its proposed Lamport clock;
          the coordinator sends the DECISIONs, then calls [k] *)
  x_alive : unit -> bool;
}

type status = Leader | Follower | Recovering | Restoring

(** Durable certification events (the Raft persistent-state contract):
    an [E_ballot] is appended to the node's WAL before any ack promising
    that ballot leaves the member, an [E_accept] before the ACCEPT_ACK
    for that transaction. The delivery frontier is not logged: it is
    re-derived from the replica's own delivered-strong records at
    replay. *)
type event =
  | E_ballot of { b : int; cb : int }
  | E_accept of Msg.prepared_strong
  | E_abort of Types.tx_rec
      (** an abort decision this member learned, as its record
          ({!Msg.decided_record}): appended without
          waiting, so a replayed accept of an aborted transaction does
          not come back undecided (a commit is named by the replica's
          delivered-strong record instead) *)

val status_name : status -> string

type t

(** [bid_interval_us] debounces {!reclaim} leadership bids (at most one
    election per interval). Deployments pass the derived
    [Config.reclaim_debounce_us]. *)
val create : bid_interval_us:int -> ctx -> leader_dc:int -> t
val is_leader : t -> bool
val status : t -> status

(** The data center this member's Ω failure detector currently trusts. *)
val trusted : t -> int

(** Current ballot; advances past its initial value only when leadership
    has been contested (Algorithm A10). *)
val ballot : t -> int

val prepared_count : t -> int
val decided_count : t -> int

(** Highest strong timestamp delivered at this member. *)
val last_delivered : t -> int

(** Time of the last delivery (drives dummy strong heartbeats). *)
val idle_since : t -> int

(** Ω notification: trust [dc]; if it is this member's own DC, start
    leader recovery (Algorithm A10). *)
val set_trusted : t -> int -> unit

(** RETRY (Algorithm A9 line 37): re-certify prepared transactions whose
    coordinator went silent. *)
val retry_stale : t -> older_than_us:int -> unit

(** Eager RETRY on Ω suspicion: re-certify every prepared transaction
    whose coordinator is in the suspected DC, so an orphaned 2PC cannot
    block delivery until the staleness timer fires. Safe under false
    suspicion (decisions are unique per transaction). *)
val retry_suspected : t -> dc:int -> unit

(** RETRY on a coordinator restart: re-certify every prepared
    transaction that the node at [coord] coordinated, since its pending
    certifications and unacknowledged DECISIONs died with it. Runs at
    any member, not only the leader. *)
val retry_coordinated : t -> coord:Msg.addr -> unit

(** {!Decided_log.prune} on this member's decided log: [floor] is the
    lowest delivery frontier among the members that may still need a
    decision. *)
val prune_decided : ?covered:(Vclock.Vc.t -> bool) -> t -> floor:int -> unit

(** DC rejoin after a crash: {!restart} with the member's own ballots
    and no accepted log (the disk was lost with the DC). [delivered] is
    the strong entry of the snapshot cut the rejoiner installed. The
    member then requests the group state ({!Msg.State_request}); the
    leader's [New_state] reply installs the decided/prepared log —
    queuing for delivery only transactions above the snapshot — and
    moves the member to [Follower], after which it votes again. *)
val begin_rejoin : t -> delivered:int -> unit

(** {1 Node-level persistence} *)

(** Install the durable-append hook (persistence mode): [log ev ~k]
    must append [ev] to stable storage and call [k] exactly once the
    write is fsynced — or never, if the node crashes first. Without a
    hook, continuations run inline (memory-only mode). *)
val set_log : t -> (event -> k:(unit -> unit) -> unit) -> unit

(** What a node snapshot captures of this member:
    [(ballot, cballot, prepared)] — the durable promises and the
    accepted-but-undecided log. Everything else is group-recoverable. *)
val persistent_state : t -> int * int * Msg.prepared_strong list

(** Node-level restart from the member's own disk: the ballots (each
    raised to at least the given one) and the accepted log [prepared]
    survived (snapshot + WAL replay), so every pre-crash ACCEPT_ACK /
    NEW_LEADER_ACK promise still holds. The decided log is dropped and
    the delivery frontier seeded at [delivered], the strong frontier the
    replica re-derived from its replayed delivered-strong records. An
    accepted entry for which [decision] returns [Some (dec, record)]
    (the disk names its fate: delivered here, or a logged {!E_abort})
    comes back decided rather than prepared. The member stays
    [Recovering] until NEW_STATE restores the decided log. *)
val restart :
  ?decision:(Types.tid -> (bool * Types.tx_rec) option) ->
  t ->
  ballot:int ->
  cballot:int ->
  prepared:Msg.prepared_strong list ->
  delivered:int ->
  unit

(** Dispatch a group message; messages not for the certification
    service are ignored. *)
val handle : t -> Msg.t -> unit
