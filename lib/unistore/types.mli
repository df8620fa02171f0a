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
    (committedCausal entries, REPLICATE payloads). *)
type tx_rec = {
  tx_tid : tid;
  tx_writes : write list;
  tx_vec : Vclock.Vc.t;  (** commit vector *)
  tx_lc : int;  (** Lamport clock of the commit *)
  tx_origin : int;  (** issuing client (LWW tie-breaker) *)
}

(** The CRDT tag of a transaction's writes. *)
val tx_tag : tx_rec -> Crdt.tag
