(** Identifiers and transaction records shared across the protocol. *)

(** Transaction identifier: issuing client plus a per-client sequence
    number. *)
type tid = { cl : int; sq : int }

val tid_pp : tid Fmt.t
val tid_equal : tid -> tid -> bool

(** One operation as seen by the conflict relation ⋈ (§3): key,
    application-assigned class, update flag. The read set of Algorithm A2
    is a list of these. *)
type opdesc = { key : Store.Keyspace.key; cls : int; write : bool }

val cls_default : int

(** One buffered write of a transaction. *)
type write = { wkey : Store.Keyspace.key; wop : Crdt.op; wcls : int }

(** Write buffer keyed by partition (wbuff\[tid\]\[l\]); strong
    transactions carry the whole map so leader recovery can re-certify
    across all partitions. *)
type wbuff = (int * write list) list

(** Operation descriptors keyed by partition. *)
type opsmap = (int * opdesc list) list

val opsmap_find : opsmap -> int -> opdesc list

(** A committed update transaction as replicated between data centers
    (committedCausal entries, REPLICATE payloads). Private: every record
    is built by {!tx_rec}, which fills [tx_entries]. *)
type tx_rec = private {
  tx_tid : tid;
  tx_writes : write list;
  tx_vec : Vclock.Vc.t;  (** commit vector *)
  tx_lc : int;  (** Lamport clock of the commit *)
  tx_entries : Store.Oplog.entry list;
      (** the writes' opLog entries, one per write in [tx_writes] order,
          sharing [tx_vec] and one tag (the commit's clock and the
          issuing client, the LWW tie-breaker): every replica appends
          these same entries *)
}

(** The one constructor: builds the entries eagerly, so the record is
    immutable from construction (the WAL checksums it at append and
    again at recovery). *)
val tx_rec :
  tid:tid -> writes:write list -> vec:Vclock.Vc.t -> lc:int -> origin:int -> tx_rec

(** [iter_writes f tx] calls [f w e] for each write and its entry. *)
val iter_writes : (write -> Store.Oplog.entry -> unit) -> tx_rec -> unit

(** The record restricted to the writes [keep] selects, sharing their
    entries. *)
val filter_writes : (write -> bool) -> tx_rec -> tx_rec
