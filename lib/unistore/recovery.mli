(** Write-ahead log and snapshots, WAN rejoin of a recovered DC, and
    node restart from disk. [resume] restarts normal service once the
    catch-up completes. *)

open Replica_state

val enable_persistence : t -> unit
val take_snapshot : t -> unit
val snapshot_bytes : t -> int
val reset_peer_view : t -> dc:int -> unit
val gossip : t -> Msg.claim -> unit
val sync_complete : t -> sync_state -> bool
val finish_sync : t -> sync_state -> unit
val handle_sync_request : t -> from:Msg.addr -> unit
val handle_sync_store :
  t -> entries:(Store.Keyspace.key * Store.Oplog.entry list) list ->
  cut:Vc.t -> unit
val sync_admits : sync_state -> Msg.t -> bool
val begin_rejoin : t -> resume:(unit -> unit) -> unit
val crash_node : t -> unit
val restart_from_disk : t -> resume:(unit -> unit) -> unit
