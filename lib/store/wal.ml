(* Simulated per-node disk: group-commit WAL + atomic snapshot.
   See wal.mli for the model. *)

type 'a record = {
  seq : int;
  crc : int;  (* Hashtbl.hash (seq, payload); a bad crc marks a tear *)
  bytes : int;
  payload : 'a;
}

type 's snap = { snap_seq : int; state : 's }

(* A durability continuation: [k] runs once record [w_seq] is durable. *)
type waiter = { w_seq : int; w_k : unit -> unit }

(* The disk models a datacenter SSD: ~0.5 ms fsync (NVMe flush), ~200 MB/s
   sustained sequential writes. The gray-disk nemesis degrades both at
   runtime ([set_slow]). *)
let fsync_us = 500
let mb_per_s = 200  (* 1 MB/s = 1 byte/us, so this is also bytes/us *)

type ('a, 's) t = {
  eng : Sim.Engine.t;
  size : 'a -> int;
  snap_size : 's -> int;
  mutable slow : int;  (* gray-disk multiplier, 1 = healthy *)
  mutable gen : int;  (* bumped on crash/scrub; stale completions no-op *)
  mutable next : int;  (* next sequence number *)
  mutable buffered : 'a record list;  (* newest first, awaiting submit *)
  mutable inflight : 'a record list;  (* oldest first, fsync under way *)
  mutable durable : 'a record list;  (* newest first *)
  mutable busy : bool;  (* an fsync is in flight *)
  waiters : waiter Queue.t;
      (* oldest first, so in [w_seq] order; all of the current [gen]:
         [crash], [scrub] and [recover] clear it *)
  mutable snapshot : 's snap option;  (* installed (durable) snapshot *)
  mutable snap_req : int;  (* snapshot write generation: latest wins *)
  mutable snap_writing : bool;
  mutable tear_armed : bool;
  m_fsync : Sim.Metrics.histogram option;
  m_bytes : Sim.Metrics.counter option;
  m_torn : Sim.Metrics.counter option;
  (* profiling labels for disk-completion events, interned lazily so
     the profiler may be enabled after the WAL is built *)
  mutable lab_fsync : Sim.Prof.label;
  mutable lab_snapshot : Sim.Prof.label;
}

let crc_of ~seq payload = Hashtbl.hash (seq, payload)

(* Planted-bug hook (test-only): when set, [append] runs the [?k]
   durability continuation immediately instead of after the fsync —
   the classic ack-before-fsync bug. The exploration harness's
   self-test enables it to prove the durability oracle catches it. *)
let unsafe_ack = ref false

let create ~eng ?metrics ~size ~snap_size () =
  let m f =
    Option.map (fun (m, labels) -> f m ~labels) metrics
  in
  {
    eng;
    size;
    snap_size;
    slow = 1;
    gen = 0;
    next = 1;
    buffered = [];
    inflight = [];
    durable = [];
    busy = false;
    waiters = Queue.create ();
    snapshot = None;
    snap_req = 0;
    snap_writing = false;
    tear_armed = false;
    m_fsync = m (fun mt ~labels -> Sim.Metrics.histogram mt ~labels "wal_fsync_us");
    m_bytes =
      m (fun mt ~labels ->
          Sim.Metrics.counter mt ~labels "wal_appended_bytes_total");
    m_torn =
      m (fun mt ~labels ->
          Sim.Metrics.counter mt ~labels "wal_torn_truncations_total");
    lab_fsync = Sim.Prof.none;
    lab_snapshot = Sim.Prof.none;
  }

let lab_fsync t =
  if t.lab_fsync <> Sim.Prof.none then t.lab_fsync
  else begin
    let l = Sim.Prof.label (Sim.Engine.prof t.eng) "wal/fsync" in
    t.lab_fsync <- l;
    l
  end

let lab_snapshot t =
  if t.lab_snapshot <> Sim.Prof.none then t.lab_snapshot
  else begin
    let l = Sim.Prof.label (Sim.Engine.prof t.eng) "wal/snapshot" in
    t.lab_snapshot <- l;
    l
  end

(* Write-time charge for [bytes]: one fsync plus the bandwidth cost,
   both inflated by the gray-disk factor. *)
let write_delay t bytes =
  t.slow * (fsync_us + (bytes / mb_per_s)) |> max 1

let durable_seq t =
  match t.durable with [] -> 0 | r :: _ -> r.seq

(* Run, oldest first, the continuations whose record is now durable. *)
let run_waiters t =
  let floor = durable_seq t in
  while
    (not (Queue.is_empty t.waiters)) && (Queue.peek t.waiters).w_seq <= floor
  do
    (Queue.take t.waiters).w_k ()
  done

(* Group commit: one fsync covers everything buffered when it starts;
   appends landing during the write ride the next one. *)
let rec maybe_fsync t =
  if (not t.busy) && t.buffered <> [] then begin
    let batch = List.rev t.buffered in
    t.buffered <- [];
    t.inflight <- batch;
    t.busy <- true;
    let bytes = List.fold_left (fun a r -> a + r.bytes) 0 batch in
    let delay = write_delay t bytes in
    let gen = t.gen in
    Sim.Engine.schedule t.eng ~label:(lab_fsync t) ~delay (fun () ->
        if t.gen = gen then begin
          t.durable <- List.rev_append t.inflight t.durable;
          t.inflight <- [];
          t.busy <- false;
          (match t.m_fsync with
          | Some h -> Sim.Metrics.observe h delay
          | None -> ());
          (match t.m_bytes with
          | Some c -> Sim.Metrics.add c bytes
          | None -> ());
          run_waiters t;
          maybe_fsync t
        end)
  end

let append t ?k payload =
  let seq = t.next in
  t.next <- seq + 1;
  let r =
    { seq; crc = crc_of ~seq payload; bytes = max 1 (t.size payload); payload }
  in
  t.buffered <- r :: t.buffered;
  (match k with
  | Some k when !unsafe_ack -> Sim.Engine.schedule t.eng ~delay:0 k
  | Some k -> Queue.add { w_seq = seq; w_k = k } t.waiters
  | None -> ());
  maybe_fsync t;
  seq

let snapshot t ~seq state =
  t.snap_req <- t.snap_req + 1;
  let req = t.snap_req and gen = t.gen in
  t.snap_writing <- true;
  let bytes = max 1 (t.snap_size state) in
  let delay = write_delay t bytes in
  Sim.Engine.schedule t.eng ~label:(lab_snapshot t) ~delay (fun () ->
      if t.gen = gen && t.snap_req = req then begin
        (* atomic rename: the new snapshot and the truncation appear
           together *)
        t.snapshot <- Some { snap_seq = seq; state };
        t.durable <- List.filter (fun r -> r.seq > seq) t.durable;
        t.snap_writing <- false;
        Option.iter (fun c -> Sim.Metrics.add c bytes) t.m_bytes
      end)

let tear_next t = t.tear_armed <- true

let crash t =
  t.gen <- t.gen + 1;
  Queue.clear t.waiters;
  t.buffered <- [];
  t.busy <- false;
  t.snap_writing <- false;
  (match t.inflight with
  | first :: _ ->
      (* the sector being written when the power cut: present on disk
         but checksum-invalid *)
      t.durable <- { first with crc = first.crc + 1 } :: t.durable;
      t.tear_armed <- false
  | [] ->
      if t.tear_armed then begin
        t.tear_armed <- false;
        match t.durable with
        | last :: rest -> t.durable <- { last with crc = last.crc + 1 } :: rest
        | [] -> ()
      end);
  t.inflight <- []

let recover t =
  let expected_first =
    match t.snapshot with Some s -> s.snap_seq + 1 | None -> 1
  in
  (* records at or below the boundary are superseded duplicates, not
     tears: an fsync racing the snapshot install can land after the
     truncation and re-expose a covered record *)
  let ascending =
    List.filter (fun r -> r.seq >= expected_first) (List.rev t.durable)
  in
  let rec take expected acc = function
    | [] -> (List.rev acc, false)
    | r :: rest ->
        if r.seq = expected && r.crc = crc_of ~seq:r.seq r.payload then
          take (expected + 1) (r :: acc) rest
        else (List.rev acc, true)
  in
  let valid, truncated = take expected_first [] ascending in
  if truncated then
    Option.iter (fun c -> Sim.Metrics.incr c) t.m_torn;
  t.durable <- List.rev valid;
  t.buffered <- [];
  t.inflight <- [];
  t.busy <- false;
  Queue.clear t.waiters;
  t.next <-
    (match t.durable with
    | r :: _ -> r.seq + 1
    | [] -> expected_first);
  ( Option.map (fun s -> s.state) t.snapshot,
    List.map (fun r -> r.payload) valid )

let scrub t =
  t.gen <- t.gen + 1;
  Queue.clear t.waiters;
  t.buffered <- [];
  t.inflight <- [];
  t.durable <- [];
  t.busy <- false;
  t.snapshot <- None;
  t.snap_writing <- false;
  t.tear_armed <- false;
  t.next <- 1

let set_slow t ~factor = t.slow <- max 1 factor
let next_seq t = t.next
let quiescent t = (not t.busy) && t.buffered = [] && not t.snap_writing
