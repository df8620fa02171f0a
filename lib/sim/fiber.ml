(* Cooperative fibers over the simulation engine, built on OCaml 5
   effects. A fiber is straight-line code that can block on an [Ivar]
   (single-assignment cell) or sleep for simulated time; while it is
   blocked, other simulation events run. Clients of the data store are
   written as fibers, which keeps workload code direct-style while all
   protocol handlers remain plain event handlers.

   Wakeups: an ivar's waiters resume through [Engine.defer], at the end
   of the event that filled it — the same instant, no engine event of
   their own, and never re-entrantly inside the filler's handler. A
   reply handler's fill thus resumes the client fiber inside the
   handler's own event.

   Profiling: a fiber resolves its attribution label once at spawn
   (explicit [?label], else inherited from the spawner) and pins its
   start and its sleep expiries to it. Ivar resumptions run inside the
   filling event and are accounted under the filler's label. *)

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty [] }

  let fill eng iv v =
    match iv.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
        iv.state <- Full v;
        List.iter
          (fun k -> Engine.defer eng (fun () -> k v))
          (List.rev waiters)

  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None

  let upon eng iv k =
    match iv.state with
    | Full v -> Engine.defer eng (fun () -> k v)
    | Empty waiters -> iv.state <- Empty (k :: waiters)
end

type _ Effect.t +=
  | Await : 'a Ivar.t -> 'a Effect.t
  | Sleep : int -> unit Effect.t

let await iv = Effect.perform (Await iv)
let sleep delay = Effect.perform (Sleep delay)

let spawn eng ?(label = Prof.none) f =
  let open Effect.Deep in
  (* Resolve inheritance now: sleep expiries are scheduled from inside
     the fiber, which may be running under a filler's label. *)
  let label =
    if label <> Prof.none then label else Engine.current_label eng
  in
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Await iv ->
              Some
                (fun (k : (b, unit) continuation) ->
                  Ivar.upon eng iv (fun v -> continue k v))
          | Sleep delay ->
              Some
                (fun (k : (b, unit) continuation) ->
                  Engine.schedule eng ~label ~delay (fun () -> continue k ()))
          | _ -> None);
    }
  in
  (* Start the fiber as an event so spawning inside a fiber is safe. *)
  Engine.schedule eng ~label ~delay:0 (fun () -> match_with f () handler)

(* Convenience: await n ivars of the same type, in order. *)
let await_all ivs = List.map await ivs
