(** Replication and heartbeats (Algorithm A4), and gap repair: the one
    pull that fills a gapped stream, catches up a rejoined or restarted
    replica, and fetches a suspected DC's stream from the siblings that
    hold it further (A4's forwarding). *)

open Replica_state

val live_peers : t -> int list
val eligible_peers : t -> int list
val note_gap : t -> origin:int -> floor:int -> from_ts:int -> claimed:int -> unit
val sibling_claim : t -> Msg.claim
val propagate_local_txs : t -> unit
val handle_replicate :
  t -> origin:int -> txs:Types.tx_rec list -> from_ts:int -> unit
val handle_heartbeat : t -> origin:int -> ts:int -> from_ts:int -> unit
val handle_repair_request :
  t -> from:Msg.addr -> origin:int -> vec_from:int -> sq:int -> unit
val handle_repair_log :
  t -> origin:int -> txs:Types.tx_rec list -> from_ts:int -> covered:int ->
  last:bool -> sq:int -> unit
val pull_suspected : t -> unit
val holders_floor : t -> init:int -> int -> int
val stable_at_holders : t -> Vc.t -> bool
val prune_committed : t -> unit
