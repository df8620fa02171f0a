(** Strong transactions, coordinator side (Algorithms A6–A7), and Ω's
    leader trust. *)

open Replica_state

val cert_retry_us : int
val certify :
  t -> caller:Msg.cert_caller -> Msg.strong_tx -> lc:int ->
  k:(Cert.cert_result -> unit) -> unit
val handle_accept_ack :
  t -> part:int -> b:int -> rid:int -> tid:Types.tid -> vote:bool -> ts:int -> lc:int ->
  from_dc:int -> unit
val handle_already_decided :
  t -> rid:int -> dec:bool -> record:Types.tx_rec -> unit
val handle_unknown_tx_ack :
  t -> part:int -> rid:int -> tid:Types.tid -> from_dc:int -> unit
val handle_commit_strong :
  t -> client:Msg.addr -> req:int -> tid:Types.tid -> lc:int -> unit
val handle_resubmit_strong :
  t -> client:Msg.addr -> req:int -> Msg.strong_tx -> lc:int -> unit
val deliver_strong : t -> Types.tx_rec list -> strong_ts:int -> unit
val strong_heartbeat : t -> unit
val retarget_trust : t -> unit
val suspect : t -> int -> unit
val unsuspect : t -> int -> unit
