(** Vector timestamps with one entry per data center plus a [strong]
    entry (UniStore §5.1, §6.1).

    A vector over [D] data centers stores [D + 1] scalar timestamps;
    entry [D] is the strong entry. Commit vectors, snapshot vectors and
    replication-progress vectors all share this representation. *)

type t = int array

val create : dcs:int -> t

(** Defensive copy of the given physical array (length [dcs + 1]). *)
val of_array : int array -> t

val copy : t -> t

(** Number of data-center entries (excludes [strong]). *)
val dcs : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit
val strong : t -> int
val set_strong : t -> int -> unit

(** Pointwise [<=] over all entries including [strong]. *)
val leq : t -> t -> bool

(** [leq] and strictly smaller in at least one entry. *)
val lt : t -> t -> bool

val equal : t -> t -> bool

(** Pointwise [<=] over the per-DC entries only. *)
val leq_dcs : t -> t -> bool

(** Pointwise join (least upper bound); allocates. *)
val join : t -> t -> t

(** Pointwise meet (greatest lower bound); allocates. *)
val meet : t -> t -> t

(** In-place [v1 := join v1 v2]. *)
val merge_into : t -> t -> unit

(** In-place [v1 := meet v1 v2]. *)
val meet_into : t -> t -> unit

(** [bump v i x] is [v.(i) <- max v.(i) x]. *)
val bump : t -> int -> int -> unit

val bump_strong : t -> int -> unit

(** [nth_largest rows ~skip i n] is the [n]-th largest value (1-based,
    ties counted) of entry [i] over every row but [rows.(skip)], as a
    descending sort would place it; allocates nothing. Requires
    [1 <= n < Array.length rows] and [skip] a row index. *)
val nth_largest : t array -> skip:int -> int -> int -> int
val pp : t Fmt.t
val to_string : t -> string
