(** Binary min-heap under an ordering given at {!create}.

    Used for the simulator's event queue, each node's network inbox and
    the replicas' threshold waits. Each keys its elements by a unique
    [(time, seq)] pair — ties on time break on insertion order — so the
    pop order is fully determined and runs are deterministic.

    {!top} and {!pop} allocate nothing. The backing array is halved
    when the heap shrinks to a quarter of it. *)

type 'a t

(** [create ~less] makes an empty heap ordered by [less], a strict
    order: the smallest element is the one no other is [less] than. *)
val create : less:('a -> 'a -> bool) -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** Smallest element, without removing it. [Invalid_argument] if the
    heap is empty. *)
val top : 'a t -> 'a

(** Remove and return the smallest element. [Invalid_argument] if the
    heap is empty. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit
