(** Causal transactions (Algorithms A2–A3) and presumed-abort
    resolution of orphaned intra-DC 2PCs. *)

open Replica_state

val start_tx :
  t -> client:Msg.addr -> client_id:int -> req:int -> tid:Types.tid -> past:Vc.t -> unit
val handle_read :
  t -> client:Msg.addr -> req:int -> tid:Types.tid -> key:Store.Keyspace.key ->
  cls:int -> unit
val handle_version :
  t -> tid:Types.tid -> key:Store.Keyspace.key -> value:Crdt.value -> lc:int option ->
  unit
val handle_update :
  t -> client:Msg.addr -> req:int -> tid:Types.tid -> key:Store.Keyspace.key ->
  op:Crdt.op -> cls:int -> unit
val handle_commit_causal :
  t -> client:Msg.addr -> req:int -> tid:Types.tid -> lc:int -> unit
val handle_prepare_ack : t -> tid:Types.tid -> part:int -> ts:int -> unit
val handle_get_version :
  t -> from:Msg.addr -> tid:Types.tid -> key:Store.Keyspace.key -> snap:Vc.t -> unit
val handle_prepare :
  t -> from:Msg.addr -> tid:Types.tid -> writes:Types.write list -> snap:Vc.t -> unit
val apply_commit : t -> Types.tx_rec -> unit
val handle_commit : t -> tid:Types.tid -> vec:Vc.t -> lc:int -> origin:int -> unit
val handle_commit_query : t -> from:Msg.addr -> tid:Types.tid -> unit
val handle_commit_abort : t -> tid:Types.tid -> unit
val resolve_orphans : t -> unit
