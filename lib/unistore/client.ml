(* Client sessions (Algorithm A1).

   A client runs as a simulation fiber: its calls block in direct style
   on replies from its coordinator while the rest of the simulation
   proceeds. The client maintains its causal past [pastVec] and a Lamport
   clock, provides read-your-writes across transactions through the
   snapshot computation, and supports on-demand durability
   (uniform_barrier) and migration (attach).

   Every call blocks the session's fiber until its reply, so a session
   has at most one call in flight, as the paper's client does: it lives
   in one slot (request number, ivar and failover deadline), and a
   reply that matches no call in flight — one that arrived after its
   call timed out — is dropped. *)

module Vc = Vclock.Vc
module Network = Net.Network
module Engine = Sim.Engine
module Fiber = Sim.Fiber
module Ivar = Sim.Fiber.Ivar

type t = {
  id : int;
  eng : Engine.t;
  net : Msg.t Network.t;
  cfg : Config.t;
  history : History.t;
  trace : Sim.Trace.t;
  trace_src : string;
  metrics : Sim.Metrics.t;
  (* cached metrics handles (shared, interned in the system registry) *)
  h_phase_execute : Sim.Metrics.histogram;
  rng : Sim.Rng.t;
  mutable dc : int;
  mutable addr : Msg.addr;
  mutable replicas_of_dc : int -> Msg.addr array;
  mutable past : Vc.t;
  mutable lc : int;
  mutable req : int;
  mutable sq : int;
  (* which DCs a failover may target; installed by [System.new_client] *)
  mutable dc_live : int -> bool;
  (* the call in flight: its request number ([no_call] when none), the
     ivar it resolves — to [Some reply], or to [None] when failover is
     enabled and the request timed out (its DC presumed crashed) — and
     its failover deadline. A session blocks on each call, so at most
     one is in flight. *)
  mutable call_req : int;
  mutable call_iv : Msg.t option Ivar.t;
  mutable call_deadline : int;
  (* whether the failover watchdog's timer is pending (see [watchdog]) *)
  mutable armed : bool;
  (* current transaction *)
  mutable cur : cur option;
}

and cur = {
  c_tid : Types.tid;
  c_coord : Msg.addr;
  c_snap : Vc.t;
  c_label : string;
  c_strong : bool;
  c_start_us : int;
  mutable c_reads : (Store.Keyspace.key * Crdt.value) list;
  mutable c_writes : Types.write list;
  mutable c_ops : Types.opdesc list;
}

let no_call = 0

exception Aborted

(* The coordinator shed the strong commit before certification
   (admission control): the transaction took no effect and may be
   retried. Distinct from [Aborted] so open-loop drivers can count shed
   load instead of re-executing. *)
exception Overloaded

(* Resolve the call in flight and clear the slot. *)
let resolve t reply =
  t.call_req <- no_call;
  Ivar.fill t.eng t.call_iv reply

let create ~id ~eng ~net ~cfg ~history ~trace ~metrics ~dc ~replicas_of_dc =
  let t =
    {
      id;
      eng;
      net;
      cfg;
      history;
      trace;
      trace_src = Fmt.str "client %d" id;
      metrics;
      h_phase_execute =
        Sim.Metrics.histogram metrics
          ~labels:[ ("phase", "execute") ]
          "strong_phase_us";
      rng = Sim.Rng.split (Engine.rng eng) ~id:(id + 1_000_000);
      dc;
      addr = -1;
      replicas_of_dc;
      past = Vc.create ~dcs:(Config.dcs cfg);
      lc = 0;
      req = 0;
      sq = 0;
      dc_live = (fun _ -> true);
      call_req = no_call;
      call_iv = Ivar.create ();
      call_deadline = 0;
      armed = false;
      cur = None;
    }
  in
  let handler msg =
    let req =
      match msg with
      | Msg.R_started { req; _ }
      | Msg.R_value { req; _ }
      | Msg.R_committed { req; _ }
      | Msg.R_strong { req; _ }
      | Msg.R_ok { req }
      | Msg.R_overloaded { req } ->
          req
      | _ -> no_call
    in
    if req <> no_call && req = t.call_req then resolve t (Some msg)
  in
  (* ~client:true — the session lives *near* the DC, not *in* it: a DC
     crash must not kill the client, or it could never fail over *)
  t.addr <-
    Network.register net ~client:true ~name:"client" ~dc
      ~cost:(Msg.cost cfg.Config.costs)
      handler;
  t

let id t = t.id
let in_flight t = t.call_req <> no_call
let dc t = t.dc
let past t = t.past
let lamport t = t.lc
let addr t = t.addr

let set_dc_live t f = t.dc_live <- f

let pick_coordinator t =
  let replicas = t.replicas_of_dc t.dc in
  replicas.(Sim.Rng.int t.rng (Array.length replicas))

(* Failover watchdog: one engine timer per session, not one per call.
   A call sent while the timer is idle arms it at the call's deadline,
   its send time plus [client_failover_us]. When the timer fires, the
   call in flight, if any, times out if its deadline has passed;
   otherwise it is a later call, sent while the timer was pending for
   an earlier one that got its reply, and the timer re-arms at its
   deadline. Each call thus times out at exactly its own deadline, and
   an idle session leaves the timer disarmed. *)
let rec watchdog t =
  t.armed <- false;
  if t.call_req <> no_call then
    if t.call_deadline <= Engine.now t.eng then resolve t None else arm t

and arm t =
  t.armed <- true;
  Engine.schedule_call t.eng
    ~label:(Sim.Prof.label (Engine.prof t.eng) "client/watchdog")
    ~time:t.call_deadline watchdog t

(* The request number of the next call: callers take it, build their
   message with it and pass the message to [call_raw]. *)
let next_req t =
  t.req <- t.req + 1;
  t.req

(* One round trip, without failover, for the message built with the
   last [next_req]: blocks the calling fiber until the reply, or — when
   failover is enabled ([client_failover_us] > 0) — until the timeout,
   returning [None] (the request or its reply died with a crashed DC; a
   reply arriving after the timeout is dropped). *)
let call_raw t dst msg =
  if t.call_req <> no_call then invalid_arg "Client: a call is in flight";
  let iv = Ivar.create () in
  t.call_req <- t.req;
  t.call_iv <- iv;
  Network.send t.net ~src:t.addr ~dst msg;
  let timeout = t.cfg.Config.client_failover_us in
  if timeout > 0 then begin
    t.call_deadline <- Engine.now t.eng + timeout;
    if not t.armed then arm t
  end;
  Fiber.await iv

(* DC failover: the session DC stopped answering, so presume it crashed
   and attach to a live DC with the causal past (CL_ATTACH, §5.6). The
   new coordinator blocks the R_ok until its uniformVec covers
   [pastVec]'s remote entries, so causality holds across the switch.
   Caveat: if the past references transactions the crashed DC never
   replicated, that wait never completes — the sacrifice whole-DC
   crashes force. *)
let rec failover t =
  let dcs = Config.dcs t.cfg in
  let rec pick k =
    if k >= dcs then None
    else
      let dc = (t.dc + k) mod dcs in
      if t.dc_live dc then Some dc else pick (k + 1)
  in
  match pick 1 with
  | None ->
      (* every other DC is down or still catching up: wait and retry *)
      Fiber.sleep t.cfg.Config.client_failover_us;
      failover t
  | Some dc ->
      Sim.Trace.emitf t.trace ~source:t.trace_src ~kind:"failover"
        "dc%d -> dc%d" t.dc dc;
      (* counted here only, once per failover; interned on the first
         one, keeping crash-free runs' metric snapshots (and golden
         artifacts) unchanged *)
      Sim.Metrics.incr
        (Sim.Metrics.counter t.metrics "client_failovers_total");
      t.dc <- dc;
      let dst = pick_coordinator t in
      (match
         call_raw t dst
           (Msg.C_attach { client = t.addr; req = next_req t; past = t.past })
       with
      | Some (Msg.R_ok _) -> t.lc <- t.lc + 1
      | Some m ->
          invalid_arg ("Client.failover: unexpected reply " ^ Msg.kind m)
      | None -> failover t)

(* Round-trip to a replica; blocks the calling fiber. With failover
   enabled, a timed-out request migrates the session to a live DC and
   aborts the surrounding transaction ([run_txn] re-executes it there);
   in-flight strong commits are instead re-submitted under the same tid
   (see [commit]). *)
let call t dst msg =
  match call_raw t dst msg with
  | Some m -> m
  | None ->
      failover t;
      t.cur <- None;
      raise Aborted

(* START (Algorithm A1 lines 1–4). *)
let start ?(label = "txn") ?(strong = false) t =
  if t.cur <> None then invalid_arg "Client.start: transaction in progress";
  let strong = Config.effective_strong t.cfg ~requested:strong in
  t.sq <- t.sq + 1;
  let tid = { Types.cl = t.id; sq = t.sq } in
  let coord = pick_coordinator t in
  let start_us = Engine.now t.eng in
  match
    call t coord
      (Msg.C_start
         { client = t.addr; client_id = t.id; req = next_req t; tid; past = t.past })
  with
  | Msg.R_started { snap; _ } ->
      t.cur <-
        Some
          {
            c_tid = tid;
            c_coord = coord;
            c_snap = snap;
            c_label = label;
            c_strong = strong;
            c_start_us = start_us;
            c_reads = [];
            c_writes = [];
            c_ops = [];
          }
  | m -> invalid_arg ("Client.start: unexpected reply " ^ Msg.kind m)

let cur t =
  match t.cur with
  | Some c -> c
  | None -> invalid_arg "Client: no transaction in progress"

(* READ (Algorithm A1 lines 5–9). *)
let read ?(cls = Types.cls_default) t key =
  let c = cur t in
  match
    call t c.c_coord
      (Msg.C_read { client = t.addr; req = next_req t; tid = c.c_tid; key; cls })
  with
  | Msg.R_value { value; lc; _ } ->
      (match lc with Some lc -> t.lc <- max t.lc lc | None -> ());
      c.c_reads <- (key, value) :: c.c_reads;
      c.c_ops <- { Types.key; cls; write = false } :: c.c_ops;
      value
  | m -> invalid_arg ("Client.read: unexpected reply " ^ Msg.kind m)

let read_int ?cls t key = Crdt.int_value (read ?cls t key)

(* UPDATE (Algorithm A1 lines 10–12). *)
let update ?(cls = Types.cls_default) t key op =
  let c = cur t in
  match
    call t c.c_coord
      (Msg.C_update
         { client = t.addr; req = next_req t; tid = c.c_tid; key; op; cls })
  with
  | Msg.R_ok _ ->
      c.c_writes <- { Types.wkey = key; wop = op; wcls = cls } :: c.c_writes;
      c.c_ops <- { Types.key; cls; write = true } :: c.c_ops
  | m -> invalid_arg ("Client.update: unexpected reply " ^ Msg.kind m)

let record t c ~vec ~lc =
  let commit_us = Engine.now t.eng in
  History.committed t.history
    ~record:
      {
        History.h_tid = c.c_tid;
        h_client = t.id;
        h_dc = t.dc;
        h_strong = c.c_strong;
        h_label = c.c_label;
        h_snap = c.c_snap;
        h_vec = vec;
        h_lc = lc;
        h_reads = List.rev c.c_reads;
        h_writes = List.rev c.c_writes;
        h_ops = List.rev c.c_ops;
        h_start_us = c.c_start_us;
        h_commit_us = commit_us;
      }
    ~latency_us:(commit_us - c.c_start_us)

let finish_strong t c ~dec ~vec ~lc =
  if Sim.Trace.enabled t.trace then
    Sim.Trace.emit_span t.trace ~source:t.trace_src
      ~kind:(if dec then "txn-strong" else "txn-aborted")
      ~start:c.c_start_us
      (Fmt.str "%a %s" Types.tid_pp c.c_tid c.c_label);
  if dec then begin
    t.past <- vec;
    t.lc <- max t.lc lc;
    record t c ~vec ~lc;
    `Committed vec
  end
  else begin
    History.aborted t.history;
    `Aborted
  end

(* Chronological per-partition buckets, re-creating the coordinator's
   wbuff/ops shape for re-submission. *)
let bucket ~part_of xs =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun x ->
      let p = part_of x in
      let l = try Hashtbl.find tbl p with Not_found -> [] in
      Hashtbl.replace tbl p (x :: l))
    xs;
  Hashtbl.fold (fun p l acc -> (p, List.rev l) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The coordinator DC crashed with a strong commit in flight and the
   decision unknown: re-submit the same [tid] at the failover DC.
   Certification dedups by tid — an already-decided transaction answers
   with its recorded decision, a prepared one re-enters at its recorded
   timestamp — so the transaction takes effect at most once. *)
let rec resubmit_strong t c =
  let partitions = t.cfg.Config.partitions in
  let wbuff =
    bucket
      ~part_of:(fun w -> Store.Keyspace.partition ~partitions w.Types.wkey)
      (List.rev c.c_writes)
  in
  let ops =
    bucket
      ~part_of:(fun (o : Types.opdesc) ->
        Store.Keyspace.partition ~partitions o.Types.key)
      (List.rev c.c_ops)
  in
  let dst = pick_coordinator t in
  match
    call_raw t dst
      (Msg.C_resubmit_strong
          {
            client = t.addr;
            req = next_req t;
            tx =
              {
                st_tid = c.c_tid;
                st_origin = t.id;
                st_wbuff = wbuff;
                st_ops = ops;
                st_snap = c.c_snap;
              };
            lc = t.lc;
          })
  with
  | Some (Msg.R_strong { dec; vec; lc; _ }) -> finish_strong t c ~dec ~vec ~lc
  | Some m -> invalid_arg ("Client.commit: unexpected reply " ^ Msg.kind m)
  | None ->
      failover t;
      resubmit_strong t c

(* COMMIT_CAUSAL_TX / COMMIT_STRONG_TX (Algorithm A1 lines 13–24). *)
let commit t =
  let c = cur t in
  t.cur <- None;
  if c.c_strong then begin
    t.lc <- t.lc + 1;
    (* execute phase of the lifecycle: START until the commit request
       leaves the client (reads, updates, coordinator round trips) *)
    let commit_req_us = Engine.now t.eng in
    Sim.Metrics.observe t.h_phase_execute (commit_req_us - c.c_start_us);
    if Sim.Trace.enabled t.trace then
      Sim.Trace.emit_span t.trace ~source:t.trace_src ~kind:"execute"
        ~start:c.c_start_us
        (Fmt.str "%a %s" Types.tid_pp c.c_tid c.c_label);
    match
      call_raw t c.c_coord
        (Msg.C_commit_strong
           { client = t.addr; req = next_req t; tid = c.c_tid; lc = t.lc })
    with
    | Some (Msg.R_strong { dec; vec; lc; _ }) ->
        finish_strong t c ~dec ~vec ~lc
    | Some (Msg.R_overloaded _) ->
        (* admission control shed the commit: the transaction took no
           effect; surface it as a retryable outcome distinct from an
           abort (interned on first shed, keeping overload-free runs'
           metric snapshots unchanged) *)
        Sim.Metrics.incr
          (Sim.Metrics.counter t.metrics "txn_overloaded_total");
        if Sim.Trace.enabled t.trace then
          Sim.Trace.emit_span t.trace ~source:t.trace_src ~kind:"txn-shed"
            ~start:c.c_start_us
            (Fmt.str "%a %s" Types.tid_pp c.c_tid c.c_label);
        raise Overloaded
    | Some m -> invalid_arg ("Client.commit: unexpected reply " ^ Msg.kind m)
    | None ->
        failover t;
        resubmit_strong t c
  end
  else begin
    t.lc <- t.lc + 1;
    match
      call t c.c_coord
        (Msg.C_commit_causal
           { client = t.addr; req = next_req t; tid = c.c_tid; lc = t.lc })
    with
    | Msg.R_committed { vec; _ } ->
        if Sim.Trace.enabled t.trace then
          Sim.Trace.emit_span t.trace ~source:t.trace_src ~kind:"txn-causal"
            ~start:c.c_start_us
            (Fmt.str "%a %s" Types.tid_pp c.c_tid c.c_label);
        t.past <- vec;
        record t c ~vec ~lc:t.lc;
        `Committed vec
    | m -> invalid_arg ("Client.commit: unexpected reply " ^ Msg.kind m)
  end

(* CL_UNIFORM_BARRIER (§5.6): returns once everything the client has
   observed is durable. *)
let uniform_barrier t =
  if t.cur <> None then
    invalid_arg "Client.uniform_barrier: transaction in progress";
  let coord = pick_coordinator t in
  match
    call t coord
      (Msg.C_uniform_barrier { client = t.addr; req = next_req t; past = t.past })
  with
  | Msg.R_ok _ -> t.lc <- t.lc + 1
  | m -> invalid_arg ("Client.uniform_barrier: unexpected reply " ^ Msg.kind m)

(* CL_ATTACH (§5.6): complete a migration started with uniform_barrier. *)
let attach t ~dc =
  if t.cur <> None then invalid_arg "Client.attach: transaction in progress";
  let replicas = t.replicas_of_dc dc in
  let dst = replicas.(Sim.Rng.int t.rng (Array.length replicas)) in
  match
    call t dst (Msg.C_attach { client = t.addr; req = next_req t; past = t.past })
  with
  | Msg.R_ok _ ->
      t.lc <- t.lc + 1;
      t.dc <- dc
  | m -> invalid_arg ("Client.attach: unexpected reply " ^ Msg.kind m)

(* Consistent migration (§4): barrier at the origin, attach at the
   destination. *)
let migrate t ~dc =
  uniform_barrier t;
  attach t ~dc

(* Run a whole transaction, retrying strong aborts like the paper's
   clients do (§6.2: "otherwise, it re-executes the transaction"). A
   mid-transaction failover (the session DC crashed) also re-executes,
   at the DC the session migrated to; a shed commit (admission control)
   re-executes after a short randomized backoff so retries from many
   clients do not resynchronize against the admission bound. *)
let run_txn ?label ?(strong = false) ?(max_retries = max_int) t body =
  let rec go attempts =
    let outcome =
      try
        start ?label ~strong t;
        let v = body t in
        match commit t with `Committed _ -> Some v | `Aborted -> None
      with
      | Aborted when t.cfg.Config.client_failover_us > 0 ->
          t.cur <- None;
          None
      | Overloaded ->
          let backoff = Config.overload_backoff_us t.cfg in
          Fiber.sleep (backoff + Sim.Rng.int t.rng backoff);
          None
    in
    match outcome with
    | Some v -> v
    | None ->
        if attempts >= max_retries then raise Aborted else go (attempts + 1)
  in
  go 0
