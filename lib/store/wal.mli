(** Simulated per-node disk: a checksummed, sequence-numbered
    write-ahead log plus an atomically-installed snapshot.

    The disk is a timing model, not an I/O layer: appends buffer in
    memory and a group-commit fsync loop makes them durable after a
    fixed fsync latency plus a write-bandwidth charge (a datacenter SSD:
    500 us fsync, 200 MB/s sequential writes), all on the
    simulation engine (so persistence is deterministic under the run
    seed). A record is {e durable} — and its [~k] continuation runs —
    only once its fsync completes; a crash before that loses it.

    Failure model (after TigerBeetle's journal: distrust the tail):
    {ul
    {- [crash] drops buffered and in-flight records, except that the
       first in-flight record is kept {e torn} (written with a bad
       checksum) — the partially-written sector a real power cut
       leaves. Torn records were never acknowledged, so truncating them
       on recovery cannot lose acked state.}
    {- [recover] replays the durable prefix: records must be
       checksum-valid and contiguous from the snapshot boundary; the
       first bad or out-of-sequence record truncates the rest of the
       tail ([wal_torn_truncations_total]).}
    {- [scrub] destroys the disk entirely (the DC-level failure domain:
       machines are lost, not restarted).}}

    Snapshots capture a caller-provided value (pass an immutable copy)
    and install with atomic-rename semantics: until the write completes,
    recovery sees the previous snapshot and the full log; afterwards the
    log is truncated at the snapshot boundary, bounding replay. *)

type ('a, 's) t
(** A disk holding records of type ['a] and snapshots of type ['s]. *)

val create :
  eng:Sim.Engine.t ->
  ?metrics:Sim.Metrics.t * Sim.Metrics.labels ->
  size:('a -> int) ->
  snap_size:('s -> int) ->
  unit ->
  ('a, 's) t
(** [size]/[snap_size] give payload sizes in bytes, charged against the
    disk's write bandwidth. When [metrics] is given, the disk
    interns [wal_fsync_us], [wal_appended_bytes_total] and
    [wal_torn_truncations_total] under the given labels. *)

val append : ('a, 's) t -> ?k:(unit -> unit) -> 'a -> int
(** Append a record; returns its sequence number. [k] (if any) runs once
    the record is durable — gate externally-visible acks on it. [k] is
    dropped (never called) if the node crashes first. *)

val snapshot : ('a, 's) t -> seq:int -> 's -> unit
(** Start writing a snapshot covering the log prefix up to and including
    [seq]. On completion the log is truncated at [seq]. A newer
    [snapshot] call supersedes an in-flight one; a crash discards it. *)

val crash : ('a, 's) t -> unit
(** Power-cut the node: see the failure model above. Pending [~k]
    continuations are dropped. *)

val tear_next : ('a, 's) t -> unit
(** Arm a deterministic torn tail for the next [crash]: if no record is
    in flight at crash time, the last durable record is corrupted
    instead (tests and the torn-tail bench use this to make the
    truncation path fire regardless of fsync phase). *)

val recover : ('a, 's) t -> 's option * 'a list
(** Read the disk back after a [crash]: the latest durable snapshot (if
    any) and the valid log tail above it, oldest first. Truncates any
    torn/corrupt suffix. Resets the disk so appends resume at the next
    sequence number after the recovered prefix. *)

val scrub : ('a, 's) t -> unit
(** Destroy the disk: no snapshot, no records, sequence numbers reset. *)

val set_slow : ('a, 's) t -> factor:int -> unit
(** Gray-disk fault: multiply fsync latency (and divide bandwidth) by
    [factor] until reset with [factor:1]. *)

val next_seq : ('a, 's) t -> int
(** The sequence number the next append will get. *)

val quiescent : ('a, 's) t -> bool
(** No buffered or in-flight records, no snapshot write under way. *)

val unsafe_ack : bool ref
(** Planted-bug hook, test-only. When set, [append] runs its [?k]
    continuation immediately (next engine step) instead of after the
    fsync — acknowledging before durability. The exploration harness's
    self-test flips this to prove the durability oracle catches the
    resulting lost-ack on a node crash. Leave [false] everywhere else. *)
