(* Discrete-event simulation engine.

   Simulated time is [int] microseconds. The run loop pops the earliest
   event and applies its function to its argument — a thunk to [()],
   or, for events queued with [schedule_call], a function shared by
   many events to the argument each carries; events schedule further
   events. Ties on time break on scheduling order, so runs are fully
   deterministic.

   Same-event continuations ([defer]): a thunk may queue work to run
   right after it returns, at the same instant and before the next
   queued event, as part of the same event — counted once, accounted
   under the event's label. Fiber wakeups use it, so resuming the fiber
   a reply handler just filled costs no engine event of its own.

   Self-profiling ([Sim.Prof]): every event carries an attribution
   label. An event scheduled without an explicit label inherits the
   label of the event currently executing, so labelling the roots
   (periodic timers, message handlers, fiber spawns, disk completions)
   attributes the whole downstream cascade. With the profiler disabled
   — the default — the cost is one integer compare per schedule and one
   branch per executed event, and labels are all [Prof.none]; event
   ordering is identical either way, so enabling profiling never changes
   a run's simulated behaviour.

   Held events ([ticket], [schedule_ticket], [passed]): a component may
   keep work that would be an event and apply it lazily, at the place
   in the (time, seq) order a ticket reserved for it — the network's
   acks that advance a reliable window are held this way.

   [run] also accrues the wall-clock time spent inside the event loop
   ([run_wall_seconds]); the bench harness divides executed events by
   it for the [sim_events_per_sec] artifact line, excluding setup and
   artifact-writing time from the denominator. *)

(* A queued event: [run arg] at [time]; [tag] is its attribution label.
   A thunk is [run] with [arg = ()]; [schedule_call] queues a function
   shared by many events with a per-event argument, so the caller
   allocates no closure per event. *)
type event =
  | Ev : {
      time : int;
      seq : int;
      tag : Prof.label;
      run : 'a -> unit;
      arg : 'a;
    }
      -> event

type t = {
  queue : event Heap.t;
  mutable now : int;
  mutable seq : int;
  mutable cur_seq : int;  (* sequence number of the executing event *)
  mutable stopped : bool;
  rng : Rng.t;
  mutable executed : int;
  prof : Prof.t;
  mutable cur_label : Prof.label;  (* label of the executing event *)
  mutable run_wall : float;  (* wall seconds spent inside [run] *)
  deferred : (unit -> unit) Queue.t;  (* the executing event's [defer]s *)
  mutable in_event : bool;
}

(* The defers run in FIFO order, each possibly queueing more. *)
let drain t =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

let create ?(seed = 42) () =
  {
    queue =
      Heap.create ~less:(fun (Ev a) (Ev b) ->
          a.time < b.time || (a.time = b.time && a.seq < b.seq));
    now = 0;
    seq = 0;
    cur_seq = 0;
    stopped = false;
    rng = Rng.create seed;
    executed = 0;
    prof = Prof.create ();
    cur_label = Prof.none;
    run_wall = 0.0;
    deferred = Queue.create ();
    in_event = false;
  }

let now t = t.now
let rng t = t.rng
let executed_events t = t.executed
let pending_events t = Heap.size t.queue
let prof t = t.prof
let current_label t = t.cur_label
let run_wall_seconds t = t.run_wall

let ticket t =
  t.seq <- t.seq + 1;
  t.seq

let push t ~label ~time ~ticket run arg =
  let time = if time < t.now then t.now else time in
  let tag = if label <> Prof.none then label else t.cur_label in
  Heap.push t.queue (Ev { time; seq = ticket; tag; run; arg })

(* Both keep their own default for [label]: a defaulted optional
   argument compiles to an inlined wrapper, so callers passing [~label]
   allocate no option. *)
let schedule_ticket t ?(label = Prof.none) ~time ~ticket f =
  push t ~label ~time ~ticket f ()

let schedule_at t ?(label = Prof.none) ~time f =
  push t ~label ~time ~ticket:(ticket t) f ()

let schedule_call t ?(label = Prof.none) ~time run arg =
  push t ~label ~time ~ticket:(ticket t) run arg

(* Inside an event, the keys below the executing event's have had their
   turn; outside the loop, those at or before now that precede every
   queued event. *)
let passed t ~time ~ticket =
  if t.in_event then time < t.now || (time = t.now && ticket < t.cur_seq)
  else
    time < t.now
    || time = t.now
       && (Heap.is_empty t.queue
          ||
          let (Ev e) = Heap.top t.queue in
          e.time <> t.now || ticket < e.seq)

let schedule t ?(label = Prof.none) ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~label ~time:(t.now + delay) f

let defer t f =
  if t.in_event then Queue.push f t.deferred else schedule t ~delay:0 f

let stop t = t.stopped <- true

let top_time t =
  let (Ev e) = Heap.top t.queue in
  e.time

let run ?until t =
  t.stopped <- false;
  let limit = match until with None -> max_int | Some u -> u in
  let rec loop () =
    if t.stopped || Heap.is_empty t.queue then ()
    else if top_time t > limit then
      (* Leave the clock at the limit and the event in the queue: a
         later [run] slice must see it — dropping it here kills
         self-rescheduling loops (periodic tasks, retransmission
         timers) for the rest of the simulation. *)
      t.now <- max t.now limit
    else begin
      let (Ev { time; seq; tag; run; arg }) = Heap.pop t.queue in
      t.now <- time;
      t.cur_seq <- seq;
      t.executed <- t.executed + 1;
      t.in_event <- true;
      if Prof.is_on t.prof then begin
        t.cur_label <- tag;
        Prof.account t.prof tag (fun () ->
            run arg;
            drain t);
        t.cur_label <- Prof.none
      end
      else begin
        run arg;
        drain t
      end;
      t.in_event <- false;
      loop ()
    end
  in
  let t0 = Prof.wall t.prof in
  Fun.protect
    ~finally:(fun () ->
      (* an event that raised leaves its defers behind: drop them *)
      Queue.clear t.deferred;
      t.in_event <- false;
      t.run_wall <- t.run_wall +. (Prof.wall t.prof -. t0))
    loop

(* Periodic task: reschedules itself every [period] while [f] returns
   [true]. [phase] offsets the first firing, which the network layer uses
   to avoid lock-step broadcasts across replicas. *)
let every t ?(label = Prof.none) ~period ?phase f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let phase = match phase with Some p -> p | None -> period in
  let rec tick () = if f () then schedule t ~label ~delay:period tick in
  schedule t ~label ~delay:phase tick
