(** Replicated data types (UniStore §3): LWW register, PN-counter,
    LWW-element set, and MV-register, applied from per-key operation
    logs.

    [apply] is order-insensitive given each operation's [tag] (Lamport
    clock + origin tie-breaker) and commit vector, so replicas holding
    the same operation set converge regardless of delivery order. *)

type tag = { lc : int; origin : int }

val tag_compare : tag -> tag -> int

type op =
  | Reg_write of int
  | Ctr_add of int
  | Set_add of int
  | Set_remove of int
  | Mv_write of int


type state

val empty : state

type value =
  | V_none
  | V_int of int
  | V_set of int list
  | V_multi of int list

val value_pp : value Fmt.t

(** Apply one logged operation; raises [Invalid_argument] if the
    operation's type contradicts the item's existing type. *)
val apply : state -> op -> tag:tag -> vec:Vclock.Vc.t -> state

val read : state -> value
val copy : state -> state

(** Overlay an operation on an already-materialised value (used for
    read-your-writes of a transaction's own buffered updates, which are
    newer than anything in the snapshot). *)
val apply_to_value : value -> op -> value

(** Project an integer (registers, counters); [V_none] reads as 0. *)
val int_value : value -> int
