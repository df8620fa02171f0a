(** One origin's stream log: what a replica keeps of that origin's
    replication stream (its own commits not yet shipped, or what it
    retains to serve repair pulls until the GC floors cover it,
    §5.5).

    Entries are kept oldest first by the origin's commit-vector entry;
    equal timestamps keep insertion order. That is the order every
    stream message carries. The log is a ring that drops from its old
    end: {!drop_through} costs what it drops and allocates nothing, and
    a {!push} at the new end allocates nothing once the ring has grown.
    An empty log holds no array. *)

type t

val create : origin:int -> t
val length : t -> int

(** Insert after the last entry at or below the transaction's
    timestamp: at the new end, unless it is a backfill. *)
val push : t -> Types.tx_rec -> unit

(** {!push} each transaction of the list in turn. *)
val push_list : t -> Types.tx_rec list -> unit

(** Drop every entry at or below the timestamp. *)
val drop_through : t -> int -> unit

(** Remove and return every entry at or below the timestamp, oldest
    first. *)
val take_through : t -> int -> Types.tx_rec list

(** The entries in ([lo], [hi]], oldest first. *)
val range : t -> lo:int -> hi:int -> Types.tx_rec list

(** Every entry, oldest first. *)
val to_list : t -> Types.tx_rec list

(** Whether an entry's commit vector is physically [vec]. *)
val mem_vec : t -> Vclock.Vc.t -> bool

(** Remove every entry of the transaction; [true] if there was one. *)
val remove : t -> Types.tid -> bool

(** Drop every entry and the ring with them. *)
val clear : t -> unit
