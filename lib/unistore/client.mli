(** Client sessions (Algorithm A1 of the paper).

    A client runs inside a simulation fiber: every call below blocks in
    direct style on the store's replies while the rest of the simulated
    system makes progress. The session maintains the client's causal
    past ([pastVec]) and Lamport clock, giving read-your-writes and
    monotonic snapshots across transactions. Create clients through
    {!System.spawn_client} or {!System.new_client}. *)

type t

(** Raised by {!run_txn} when a strong transaction aborts during
    certification. Also raised by any session call after a DC failover
    ([Config.client_failover_us] > 0, the session DC stopped
    answering): the session has already migrated to a live DC
    carrying its causal past, and the interrupted transaction must be
    re-executed there ({!run_txn} does so automatically). In-flight
    strong commits are not aborted but re-submitted under the same
    transaction id, which certification dedups — exactly-once. *)
exception Aborted

(** Raised by {!commit} when the coordinator
    shed the strong commit under admission control
    ([Config.admission_max_pending]): the transaction took no effect and
    is retryable. {!run_txn} retries it after a short randomized
    backoff; open-loop drivers instead count it as shed load. *)
exception Overloaded

(** Used by [System]; not part of the public workflow. *)
val create :
  id:int ->
  eng:Sim.Engine.t ->
  net:Msg.t Net.Network.t ->
  cfg:Config.t ->
  history:History.t ->
  trace:Sim.Trace.t ->
  metrics:Sim.Metrics.t ->
  dc:int ->
  replicas_of_dc:(int -> Msg.addr array) ->
  t

val id : t -> int

(** Whether the session has a call outstanding (awaiting a reply or a
    failover timeout). At quiescence every session should be idle — the
    liveness oracle of [lib/explore] checks exactly that. *)
val in_flight : t -> bool

(** Install the deployment's view of which DCs a failover may target
    (live and done resyncing). Set by {!System.new_client}; only
    consulted when [Config.client_failover_us] > 0. *)
val set_dc_live : t -> (int -> bool) -> unit

(** Data center the session is currently attached to. *)
val dc : t -> int

(** The client's causal past (its [pastVec]). *)
val past : t -> Vclock.Vc.t

val lamport : t -> int
val addr : t -> Msg.addr

(** Begin a transaction at a coordinator of the current DC. [strong]
    requests certification at commit (the configuration's mode may
    override it, see {!Config.effective_strong}); [label] tags the
    transaction for per-type latency measurement. *)
val start : ?label:string -> ?strong:bool -> t -> unit

(** Read a key within the current transaction. [cls] is the operation
    class used by the conflict relation. Blocks the fiber for the
    simulated round trips. *)
val read : ?cls:int -> t -> Store.Keyspace.key -> Crdt.value

(** {!read} projected to an integer (registers/counters; absent reads
    as 0). *)
val read_int : ?cls:int -> t -> Store.Keyspace.key -> int

(** Buffer an update within the current transaction. *)
val update : ?cls:int -> t -> Store.Keyspace.key -> Crdt.op -> unit

(** Commit the current transaction: causal transactions always commit;
    strong transactions may abort on a conflict. On commit, the
    client's causal past advances to the commit vector. Raises
    {!Overloaded} when admission control shed a strong commit. *)
val commit : t -> [ `Committed of Vclock.Vc.t | `Aborted ]

(** On-demand durability (§5.6): returns once every transaction this
    session has observed is uniform, hence durable under up to [f]
    data-center failures. Requires a mode that tracks uniformity — under
    [Cure_ft] (which has no uniformity mechanism, the very gap §4 points
    out in Cure) this call never returns. *)
val uniform_barrier : t -> unit

(** Attach the session to another data center; blocks until that DC's
    state contains the session's causal past. *)
val attach : t -> dc:int -> unit

(** Consistent migration (§4): {!uniform_barrier} at the origin, then
    {!attach} at the destination. *)
val migrate : t -> dc:int -> unit

(** Run a whole transaction function, re-executing it when a strong
    commit aborts (as the paper's clients do, §6.2). Raises {!Aborted}
    after [max_retries]. *)
val run_txn :
  ?label:string -> ?strong:bool -> ?max_retries:int -> t -> (t -> 'a) -> 'a
