(* Protocol messages. One variant covers the whole system: client/
   coordinator RPCs, the causal protocol (Algorithms A1–A5), and the
   transaction certification service (Algorithms A7–A10). *)

module Vc = Vclock.Vc

type addr = int (* Network.addr *)

(* A strong transaction as certification sees it (Algorithms A6–A10):
   its write buffer, operation map and snapshot, built once by the
   coordinator (or the re-submitting client) and passed by reference
   through CERTIFY, PREPARE_STRONG, ACCEPT and into the members'
   prepared and decided logs. The whole map travels so leader recovery
   can re-certify the transaction across all its partitions. The
   Lamport clock is not part of it: it changes at each stage — the
   client's request clock, the group's proposal, the decision — so each
   message and log record carries its own. *)
type strong_tx = {
  st_tid : Types.tid;
  st_origin : int;  (* issuing client; -1 for a dummy heartbeat *)
  st_wbuff : Types.wbuff;
  st_ops : Types.opsmap;
  st_snap : Vc.t;
}

(* Prepared strong transaction at a partition replica (preparedStrong). *)
type prepared_strong = {
  ps_tx : strong_tx;
  ps_coord : addr;
  ps_vote : bool;  (* leader's certification vote: commit? *)
  ps_ts : int;  (* proposed strong timestamp *)
  ps_lc : int;
}

(* Decided strong transaction (decidedStrong). [ds_record] is the
   decision's record: commit vector, Lamport clock and, for a commit,
   the writes delivery applies. *)
type decided_strong = {
  ds_tx : strong_tx;
  ds_dec : bool;  (* committed? *)
  ds_record : Types.tx_rec;
}

(* The record of deciding [tx] at [vec] and [lc]: for a commit, every
   write of the transaction (each partition applies its own) with their
   opLog entries; for an abort, none. Built once per decision, by
   whoever decides, and carried by reference in DECISION,
   LEARN_DECISION and ALREADY_DECIDED, so every member of every
   involved group delivers — and every replica stores — the same
   entries. *)
let decided_record tx ~dec ~vec ~lc =
  Types.tx_rec ~tid:tx.st_tid
    ~writes:(if dec then List.concat_map snd tx.st_wbuff else [])
    ~vec ~lc ~origin:tx.st_origin

type cert_caller = Normal | Restoring

(* A member's state in a NEW_LEADER_ACK ([Cert]'s floor rule). *)
type ack = {
  cballot : int;
  floor : int;
  delivered : int;
  prepared : prepared_strong list;
  decided : decided_strong list;
}

(* Sibling gossip carried by an own-stream message (Algorithm A5): the
   sender's knownVec GC claim and, when it advanced since the last one
   the sender attached and the mode tracks uniformity, its stableVec.
   Receivers only read the vectors, so the siblings share one copy. *)
type claim = { vec : Vc.t; stable : Vc.t option }

type t =
  (* ---- client -> coordinator -------------------------------------- *)
  | C_start of {
      client : addr;
      client_id : int;
      req : int;
      tid : Types.tid;  (* allocated by the client: (client id, seq) *)
      past : Vc.t;
    }
  | C_read of { client : addr; req : int; tid : Types.tid; key : Store.Keyspace.key; cls : int }
  | C_update of {
      client : addr;
      req : int;
      tid : Types.tid;
      key : Store.Keyspace.key;
      op : Crdt.op;
      cls : int;
    }
  | C_commit_causal of { client : addr; req : int; tid : Types.tid; lc : int }
  | C_commit_strong of { client : addr; req : int; tid : Types.tid; lc : int }
  | C_uniform_barrier of { client : addr; req : int; past : Vc.t }
  (* CL_ATTACH (§5.6): also how a session fails over to a new DC after
     its own stopped answering *)
  | C_attach of { client : addr; req : int; past : Vc.t }
  (* idempotent re-submission of an in-flight strong transaction at the
     failover DC: same tid, so certification deduplicates *)
  | C_resubmit_strong of {
      client : addr;
      req : int;
      tx : strong_tx;
      lc : int;
    }
  (* ---- coordinator -> client -------------------------------------- *)
  | R_started of { req : int; tid : Types.tid; snap : Vc.t }
  | R_value of { req : int; value : Crdt.value; lc : int option }
  | R_committed of { req : int; vec : Vc.t }
  | R_strong of { req : int; dec : bool; vec : Vc.t; lc : int }
  | R_ok of { req : int }
  (* admission control shed the commit before certification: the
     transaction took no effect and the client may retry it *)
  | R_overloaded of { req : int }
  (* ---- causal protocol, within a data center (Algorithms A2–A3) --- *)
  | Get_version of { from : addr; tid : Types.tid; key : Store.Keyspace.key; snap : Vc.t }
  | Version of { tid : Types.tid; key : Store.Keyspace.key; value : Crdt.value; lc : int option }
  | Prepare of { from : addr; tid : Types.tid; writes : Types.write list; snap : Vc.t }
  | Prepare_ack of { tid : Types.tid; part : int; ts : int }
  | Commit of { tid : Types.tid; vec : Vc.t; lc : int; origin : int }
  (* Presumed-abort resolution of causal-2PC orphans (persistence mode):
     a restarted participant that replayed a prepared-but-uncommitted
     entry from its WAL asks the coordinator what became of [tid]. A
     coordinator holding a durable decision re-sends [Commit]; one with
     no record of the transaction answers [Commit_abort] (presumed
     abort), and the participant discards the prepared entry. *)
  | Commit_query of { from : addr; tid : Types.tid; part : int }
  | Commit_abort of { tid : Types.tid }
  (* ---- replication and forwarding (Algorithm A4) ------------------- *)
  (* [from_ts] is the stream-continuity boundary: the sender claims the
     message carries every transaction of [origin]'s stream with
     timestamp in (from_ts, last]. A receiver whose frontier for
     [origin] is below [from_ts] has a gap and must not jump — it
     repairs instead (see Replication.handle_replicate). Overstating
     [from_ts] is safe (spurious repair); understating it would hide a
     gap, so senders derive it from what they actually shipped/retained,
     never from a belief about the receiver. [txs] ascend by [origin]'s
     timestamp: the receiver applies them in arrival order. Only the
     origin sends its own stream, so [claim], the origin's sibling
     gossip, rides every one, once per propagate tick. *)
  | Replicate of {
      origin : int;
      txs : Types.tx_rec list;
      from_ts : int;
      claim : claim;
    }
  | Heartbeat of { origin : int; ts : int; from_ts : int; claim : claim }
  (* Origin-scoped repair pull, for a gap, a catch-up or a suspected
     origin (Replication.pull_suspected): backfill the window
     (vec_from, upto] of [origin]'s stream from whoever holds it (the
     origin itself or any sibling — GC floors guarantee retention, see
     Replication.prune_committed). [sq] tags the attempt so replies from
     an abandoned target are discarded after deadline failover. *)
  | Repair_request of {
      from : addr;
      origin : int;
      vec_from : int;
      upto : int;
      sq : int;
    }
  (* Repair reply chunk: [from_ts] chains chunks ([covered] on the final
     chunk is how far the server's own frontier vouches for the window —
     the requester may jump its frontier to [covered] even if the window
     was empty of transactions). [txs] ascend in stream order, as in
     [Replicate]. *)
  | Repair_log of {
      origin : int;
      txs : Types.tx_rec list;
      from_ts : int;
      covered : int;
      last : bool;
      sq : int;
    }
  (* ---- metadata exchange (Algorithm A5) ---------------------------- *)
  (* In-DC dissemination tree for stableVec: minima flow up to partition
     0, the computed stableVec flows back down. *)
  | Kv_up of { part : int; vec : Vc.t }
  | Stable_down of { vec : Vc.t }
  (* A sibling claim sent outside the propagate tick: the catch-up
     gossip of a rejoining or restarted replica, and the immediate claim
     on resuming service that unpins the siblings' GC floors. The
     periodic exchange rides the stream ([claim] of [Replicate] and
     [Heartbeat]). *)
  | Knownvec_global of { dc : int; claim : claim }
  (* ---- certification service (Algorithms A7–A10) ------------------- *)
  | Prepare_strong of {
      rid : int;
      caller : cert_caller;
      coord : addr;
      tx : strong_tx;
      lc : int;
    }
  | Already_decided of { rid : int; dec : bool; record : Types.tx_rec }
  | Accept of { b : int; rid : int; p : prepared_strong }
  | Accept_ack of {
      part : int;
      b : int;
      rid : int;
      tid : Types.tid;
      vote : bool;
      ts : int;
      lc : int;
      from_dc : int;
    }
  | Unknown_tx of { b : int; rid : int; tid : Types.tid; coord : addr }
  | Unknown_tx_ack of { part : int; rid : int; tid : Types.tid; from_dc : int }
  (* [record] is the decision's ([decided_record]), shared by
     reference: its tid, commit vector and Lamport clock. *)
  | Decision of { b : int; dec : bool; record : Types.tx_rec }
  (* The leader's one message per decision: the decision, and the
     delivery frontier [upto] it frees (0 when it frees none), so the
     decision always reaches a member before any frontier above it.
     A bare [Deliver] carries a frontier freed by leader recovery. *)
  | Learn_decision of {
      b : int;
      dec : bool;
      record : Types.tx_rec;
      upto : int;
    }
  | Deliver of { b : int; ts : int }
  (* Centralized certification (REDBLUE) pushes decided updates from the
     per-DC certification replica to the data partitions of its DC. *)
  | Push_updates of { txs : Types.tx_rec list; strong_ts : int }
  (* ---- leader recovery (Algorithm A10) ------------------------------ *)
  | Nack of { b : int; from : addr }
  | New_leader of { b : int; from : addr }
  | New_leader_ack of { b : int; ack : ack; from : addr }
  | New_state of {
      b : int;
      floor : int;
      prepared : prepared_strong list;
      decided : decided_strong list;
      from : addr;
    }
  | New_state_ack of { b : int; from : addr }
  (* ---- DC rejoin: snapshot transfer ---------------------------------- *)
  (* A recovering replica asks a live sibling of its partition for a
     snapshot of the materialized store. *)
  | Sync_request of { from : addr }
  (* The whole snapshot in one message: each key's oplog entry list,
     by reference, and the cut vector — the peer's knownVec at snapshot
     time. Entries above the cut (the peer's own not yet propagated
     commits) are filtered out of their key's list and reach the
     rejoiner through ordinary replication, whose windows above the cut
     gap repair fills ([Repair_request]/[Repair_log]). The rejoiner
     installs the first that arrives, whichever request drew it. *)
  | Sync_store of {
      entries : (Store.Keyspace.key * Store.Oplog.entry list) list;
      cut : Vc.t;
    }
  (* A Recovering certification member asks for the group state, giving
     its durable promise [ballot] and frontier [delivered] ([Cert]). *)
  | State_request of { from : addr; ballot : int; delivered : int }
  (* ---- Ω failure detector ------------------------------------------- *)
  | Fd_ping of { from_dc : int }

(* A sibling claim costs the vector merge, plus the uniformVec
   recomputation when it carries a stableVec. *)
let claim_cost (c : Config.costs) { stable; _ } =
  if Option.is_some stable then c.c_stablevec + c.c_vec else c.c_vec

(* Service cost of a message (CPU microseconds at the processing node). *)
let cost (c : Config.costs) = function
  | C_start _ | C_read _ | C_update _ | C_commit_causal _ | C_commit_strong _
  | C_uniform_barrier _ | C_attach _ -> c.c_base
  | C_resubmit_strong _ -> c.c_prepare
  | R_started _ | R_value _ | R_committed _ | R_strong _ | R_ok _
  | R_overloaded _ ->
      c.c_client
  | Get_version _ -> c.c_get_version
  | Version _ -> c.c_base
  | Prepare _ -> c.c_prepare
  | Prepare_ack _ -> c.c_base
  | Commit _ -> c.c_commit
  | Commit_query _ -> c.c_base
  | Commit_abort _ -> c.c_commit
  | Replicate { txs; claim; _ } ->
      c.c_base + (c.c_replicate_tx * List.length txs) + claim_cost c claim
  | Heartbeat { claim; _ } -> c.c_vec + claim_cost c claim
  | Repair_request _ -> c.c_base
  | Repair_log { txs; _ } -> c.c_base + (c.c_replicate_tx * List.length txs)
  | Kv_up _ | Stable_down _ -> c.c_vec
  | Knownvec_global { claim; _ } -> claim_cost c claim
  | Prepare_strong { tx; _ } ->
      if List.for_all (fun (_, ws) -> ws = []) tx.st_wbuff then c.c_cert_ro
      else c.c_cert
  | Already_decided _ -> c.c_base
  | Accept _ -> c.c_accept
  | Accept_ack _ -> c.c_base
  | Unknown_tx _ | Unknown_tx_ack _ -> c.c_base
  | Decision _ -> c.c_base
  | Learn_decision _ -> c.c_base
  | Deliver _ -> c.c_base
  | Push_updates { txs; _ } -> c.c_base + (c.c_deliver_tx * List.length txs)
  | Nack _ | New_leader _ | New_leader_ack _ | New_state _ | New_state_ack _
    ->
      c.c_base
  | Sync_request _ | State_request _ -> c.c_base
  | Sync_store { entries; _ } ->
      List.fold_left
        (fun acc (_, l) -> acc + (c.c_replicate_tx * List.length l))
        c.c_base entries
  | Fd_ping _ -> c.c_vec

(* Cost profile of the REDBLUE centralized service nodes: certification
   there runs against every concurrent strong transaction in the system,
   not one partition's slice. *)
let cost_centralized (c : Config.costs) = function
  | Prepare_strong _ -> c.c_cert_centralized
  | m -> cost c m

(* Estimated wire size in bytes, for the network meter's traffic
   accounting. Scalars count 8 bytes, vector entries 8 each, list
   elements a fixed per-record weight, plus a 16-byte envelope — the
   sizes a compact binary codec would produce, so Replicate and
   certification payloads dominate exactly as in the real system. *)
let header_bytes = 16

let vc_bytes (v : Vc.t) = 8 * Array.length v
let writes_bytes ws = 8 + (24 * List.length ws)
let opsmap_entry_bytes os = 8 + (16 * List.length os)

let wbuff_bytes (w : Types.wbuff) =
  List.fold_left (fun acc (_, ws) -> acc + 8 + writes_bytes ws) 8 w

let opsmap_bytes (o : Types.opsmap) =
  List.fold_left (fun acc (_, os) -> acc + 8 + opsmap_entry_bytes os) 8 o

let tx_bytes (tx : Types.tx_rec) =
  16 + writes_bytes tx.tx_writes + vc_bytes tx.tx_vec + 16

let strong_tx_bytes tx =
  wbuff_bytes tx.st_wbuff + opsmap_bytes tx.st_ops + vc_bytes tx.st_snap

let prepared_bytes p = 48 + strong_tx_bytes p.ps_tx

(* A decided entry is never certified again, so it ships no snapshot. *)
let decided_bytes d =
  40 + wbuff_bytes d.ds_tx.st_wbuff + opsmap_bytes d.ds_tx.st_ops
  + vc_bytes d.ds_record.tx_vec

let claim_bytes { vec; stable } =
  vc_bytes vec + match stable with Some s -> vc_bytes s | None -> 0

let size_bytes = function
  | C_start { past; _ } -> header_bytes + 24 + vc_bytes past
  | C_read _ -> header_bytes + 32
  | C_update _ -> header_bytes + 40
  | C_commit_causal _ | C_commit_strong _ -> header_bytes + 24
  | C_uniform_barrier { past; _ } | C_attach { past; _ } ->
      header_bytes + 16 + vc_bytes past
  | C_resubmit_strong { tx; _ } -> header_bytes + 40 + strong_tx_bytes tx
  | R_started { snap; _ } -> header_bytes + 24 + vc_bytes snap
  | R_value _ -> header_bytes + 24
  | R_committed { vec; _ } -> header_bytes + 8 + vc_bytes vec
  | R_strong { vec; _ } -> header_bytes + 24 + vc_bytes vec
  | R_ok _ -> header_bytes + 8
  | R_overloaded _ -> header_bytes + 8
  | Get_version { snap; _ } -> header_bytes + 32 + vc_bytes snap
  | Version _ -> header_bytes + 32
  | Prepare { writes; snap; _ } ->
      header_bytes + 16 + writes_bytes writes + vc_bytes snap
  | Prepare_ack _ -> header_bytes + 24
  | Commit { vec; _ } -> header_bytes + 24 + vc_bytes vec
  | Commit_query _ -> header_bytes + 24
  | Commit_abort _ -> header_bytes + 8
  | Replicate { txs; claim; _ } ->
      List.fold_left
        (fun acc tx -> acc + tx_bytes tx)
        (header_bytes + 16 + claim_bytes claim)
        txs
  | Heartbeat { claim; _ } -> header_bytes + 24 + claim_bytes claim
  | Repair_request _ -> header_bytes + 40
  | Repair_log { txs; _ } ->
      List.fold_left (fun acc tx -> acc + tx_bytes tx) (header_bytes + 40) txs
  | Kv_up { vec; _ } -> header_bytes + 8 + vc_bytes vec
  | Knownvec_global { claim; _ } -> header_bytes + 8 + claim_bytes claim
  | Stable_down { vec } -> header_bytes + vc_bytes vec
  | Prepare_strong { tx; _ } -> header_bytes + 40 + strong_tx_bytes tx
  | Already_decided { record; _ } -> header_bytes + 32 + vc_bytes record.tx_vec
  | Accept { p; _ } -> header_bytes + 56 + strong_tx_bytes p.ps_tx
  | Accept_ack _ -> header_bytes + 56
  | Unknown_tx _ -> header_bytes + 32
  | Unknown_tx_ack _ -> header_bytes + 32
  | Decision { record; _ } -> header_bytes + 32 + vc_bytes record.tx_vec
  | Learn_decision { record; _ } -> header_bytes + 40 + vc_bytes record.tx_vec
  | Deliver _ -> header_bytes + 16
  | Push_updates { txs; _ } ->
      List.fold_left (fun acc tx -> acc + tx_bytes tx) (header_bytes + 16) txs
  | Nack _ | New_leader _ -> header_bytes + 16
  | ( New_leader_ack { ack = { prepared; decided; _ }; _ }
    | New_state { prepared; decided; _ } ) as m ->
      (* the floor, and an ack's frontier *)
      let floors = match m with New_leader_ack _ -> 16 | _ -> 8 in
      List.fold_left
        (fun acc p -> acc + prepared_bytes p)
        (List.fold_left
           (fun acc d -> acc + decided_bytes d)
           (header_bytes + 24 + floors) decided)
        prepared
  | New_state_ack _ -> header_bytes + 16
  | Sync_request _ -> header_bytes + 8
  | Sync_store { entries; cut } ->
      List.fold_left
        (fun acc (_, l) ->
          List.fold_left
            (fun acc (e : Store.Oplog.entry) -> acc + 24 + vc_bytes e.vec)
            acc l)
        (header_bytes + vc_bytes cut)
        entries
  | State_request _ -> header_bytes + 24
  | Fd_ping _ -> header_bytes + 8

let kind = function
  | C_start _ -> "c_start"
  | C_read _ -> "c_read"
  | C_update _ -> "c_update"
  | C_commit_causal _ -> "c_commit_causal"
  | C_commit_strong _ -> "c_commit_strong"
  | C_uniform_barrier _ -> "c_uniform_barrier"
  | C_attach _ -> "c_attach"
  | C_resubmit_strong _ -> "c_resubmit_strong"
  | R_started _ -> "r_started"
  | R_value _ -> "r_value"
  | R_committed _ -> "r_committed"
  | R_strong _ -> "r_strong"
  | R_ok _ -> "r_ok"
  | R_overloaded _ -> "r_overloaded"
  | Get_version _ -> "get_version"
  | Version _ -> "version"
  | Prepare _ -> "prepare"
  | Prepare_ack _ -> "prepare_ack"
  | Commit _ -> "commit"
  | Commit_query _ -> "commit_query"
  | Commit_abort _ -> "commit_abort"
  | Replicate _ -> "replicate"
  | Heartbeat _ -> "heartbeat"
  | Repair_request _ -> "repair_request"
  | Repair_log _ -> "repair_log"
  | Kv_up _ -> "kv_up"
  | Stable_down _ -> "stable_down"
  | Knownvec_global _ -> "knownvec_global"
  | Prepare_strong _ -> "prepare_strong"
  | Already_decided _ -> "already_decided"
  | Accept _ -> "accept"
  | Accept_ack _ -> "accept_ack"
  | Unknown_tx _ -> "unknown_tx"
  | Unknown_tx_ack _ -> "unknown_tx_ack"
  | Decision _ -> "decision"
  | Learn_decision _ -> "learn_decision"
  | Deliver _ -> "deliver"
  | Push_updates _ -> "push_updates"
  | Nack _ -> "nack"
  | New_leader _ -> "new_leader"
  | New_leader_ack _ -> "new_leader_ack"
  | New_state _ -> "new_state"
  | New_state_ack _ -> "new_state_ack"
  | Sync_request _ -> "sync_request"
  | Sync_store _ -> "sync_store"
  | State_request _ -> "state_request"
  | Fd_ping _ -> "fd_ping"
