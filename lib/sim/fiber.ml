(* Cooperative fibers over the simulation engine, built on OCaml 5
   effects. A fiber is straight-line code that can block on an [Ivar]
   (single-assignment cell) or sleep for simulated time; while it is
   blocked, other simulation events run. Clients of the data store are
   written as fibers, which keeps workload code direct-style while all
   protocol handlers remain plain event handlers.

   Parking: a blocking fiber registers itself where it waits — on the
   ivar, or as a sleep's expiry event — and then performs [Park], a
   constant effect whose handler only stores the continuation in the
   fiber's own record. Every fiber builds its handler, its [resume]
   function and its [Park] answer once, at spawn, so an await on an
   empty ivar allocates only the stored continuation's option. An ivar
   has at most one waiter: the client, its one user, blocks one session
   fiber on each call.

   Wakeups: an ivar's waiter resumes through [Engine.defer], at the end
   of the event that filled it — the same instant, no engine event of
   its own, and never re-entrantly inside the filler's handler. A reply
   handler's fill thus resumes the client fiber inside the handler's
   own event.

   Profiling: a fiber resolves its attribution label once at spawn
   (explicit [?label], else inherited from the spawner) and pins its
   start and its sleep expiries to it. Ivar resumptions run inside the
   filling event and are accounted under the filler's label. *)

open Effect.Deep

type fiber = {
  eng : Engine.t;
  label : Prof.label;
  (* the continuation while suspended *)
  mutable k : (unit, unit) continuation option;
  (* continue the fiber; built at spawn *)
  resume : unit -> unit;
  (* [Some] of this record, the value of [running] while it runs *)
  me : fiber option;
}

type _ Effect.t += Park : unit Effect.t

(* The fiber executing right now, if any, on this domain: set when a
   fiber is entered, cleared when it parks or ends. *)
let running : fiber option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

module Ivar = struct
  type 'a state = Empty | Parked of fiber | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty }

  let fill eng iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty -> iv.state <- Full v
    | Parked f ->
        iv.state <- Full v;
        Engine.defer eng f.resume
end

let self name =
  match !(Domain.DLS.get running) with
  | Some f -> f
  | None -> invalid_arg (name ^ ": not inside a fiber")

(* A fiber waiting on a filled ivar resumes after the current event, as
   one waiting on an empty ivar resumes after the filling one. *)
let await (iv : 'a Ivar.t) : 'a =
  let f = self "Fiber.await" in
  (match iv.state with
  | Full _ -> Engine.defer f.eng f.resume
  | Empty -> iv.state <- Parked f
  | Parked _ -> invalid_arg "Fiber.await: the ivar already has a waiter");
  Effect.perform Park;
  match iv.state with Full v -> v | _ -> assert false

let sleep delay =
  let f = self "Fiber.sleep" in
  Engine.schedule f.eng ~label:f.label ~delay f.resume;
  Effect.perform Park

let spawn eng ?(label = Prof.none) body =
  (* Resolve inheritance now: sleep expiries are scheduled from inside
     the fiber, which may be running under a filler's label. *)
  let label =
    if label <> Prof.none then label else Engine.current_label eng
  in
  let cur = Domain.DLS.get running in
  let rec f =
    {
      eng;
      label;
      k = None;
      me = Some f;
      resume =
        (fun () ->
          cur := f.me;
          continue (Option.get f.k) ());
    }
  in
  let parked =
    Some
      (fun k ->
        f.k <- Some k;
        cur := None)
  in
  let handler =
    {
      retc = (fun () -> cur := None);
      exnc =
        (fun e ->
          cur := None;
          raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Park -> (parked : ((b, unit) continuation -> unit) option)
          | _ -> None);
    }
  in
  (* Start the fiber as an event so spawning inside a fiber is safe. *)
  Engine.schedule eng ~label ~delay:0 (fun () ->
      cur := f.me;
      match_with body () handler)
