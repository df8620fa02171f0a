(** stableVec/uniformVec (Algorithm A5), uniform barrier and attach
    (§5.6). *)

open Replica_state

val remote_snapshot_vec : t -> Vc.t
val bump_uniform_remote : t -> Vc.t -> unit
val bump_snapshot_source : t -> Vc.t -> unit
val update_stable : t -> Vc.t -> unit
val is_leaf : t -> bool
val stable_lead_us : t -> int
val broadcast_vecs : t -> unit
val handle_kv_up : t -> part:int -> vec:Vc.t -> unit
val handle_knownvec_global : t -> dc:int -> Msg.claim -> unit
val handle_uniform_barrier : t -> client:Msg.addr -> req:int -> past:Vc.t -> unit
val handle_attach : t -> client:Msg.addr -> req:int -> past:Vc.t -> unit
