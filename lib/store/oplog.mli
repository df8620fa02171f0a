(** Per-key operation logs with snapshot reads (opLog of §5.1).

    Each entry records an update operation together with the commit
    vector of its transaction and its CRDT tag; a read materialises the
    key's state within a snapshot vector. *)

(** One version: immutable, and fixed at commit, so every replica's log
    may hold the same entry. *)
type entry = { op : Crdt.op; vec : Vclock.Vc.t; tag : Crdt.tag }

type t

val create : unit -> t

(** [append t key e] adds the version [e] to [key]'s list by reference:
    the log pays for the list cell only. *)
val append : t -> Keyspace.key -> entry -> unit

(** [install t key entries] gives [key], which must hold no version yet
    ([Invalid_argument] otherwise), the list [entries] (newest first,
    as {!entries} returns it) by reference, so replicas and snapshots
    may share one immutable list. It counts as that many appends. *)
val install : t -> Keyspace.key -> entry list -> unit

(** Entries for a key, newest (highest tag) first. *)
val entries : t -> Keyspace.key -> entry list

(** Discard every version (crash-recovery wipe before a snapshot
    install); the lifetime {!appended} counter is preserved. *)
val clear : t -> unit

val version_count : t -> Keyspace.key -> int
val keys : t -> Keyspace.key list

(** Total number of appends over the log's lifetime. *)
val appended : t -> int

(** Number of entries held, over every key. *)
val length : t -> int

(** Every key and its entry list (the list itself, not a copy), in the
    order of {!keys}. *)
val snapshot : t -> Keyspace.key array * entry list array

(** [read t key ~snap] returns the key's value within the snapshot and
    the highest Lamport clock among contributing operations (None when
    the key has no visible version). *)
val read : t -> Keyspace.key -> snap:Vclock.Vc.t -> Crdt.value * int option
