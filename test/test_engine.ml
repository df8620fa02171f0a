(* Discrete-event engine: ordering, time limits, periodic tasks,
   determinism. *)

let test_time_ordering () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule eng ~delay:30 (fun () -> log := 30 :: !log);
  Sim.Engine.schedule eng ~delay:10 (fun () -> log := 10 :: !log);
  Sim.Engine.schedule eng ~delay:20 (fun () -> log := 20 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Sim.Engine.now eng)

let test_same_time_fifo () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.Engine.schedule eng ~delay:5 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "insertion order at same instant"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_nested_scheduling () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule eng ~delay:10 (fun () ->
      log := "a" :: !log;
      Sim.Engine.schedule eng ~delay:5 (fun () -> log := "c" :: !log);
      Sim.Engine.schedule eng ~delay:0 (fun () -> log := "b" :: !log));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "nested" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final time" 15 (Sim.Engine.now eng)

let test_until_limit () =
  let eng = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.Engine.schedule eng ~delay:d (fun () -> fired := d :: !fired))
    [ 10; 20; 30; 40 ];
  Sim.Engine.run eng ~until:25;
  Alcotest.(check (list int)) "events within limit" [ 10; 20 ] (List.rev !fired);
  Alcotest.(check int) "clock clamped to limit" 25 (Sim.Engine.now eng)

let test_until_preserves_future_events () =
  (* Regression: [run ~until] used to pop-and-drop the first event past
     the limit, so sliced runs silently killed retransmission timers and
     self-rescheduling periodic loops. *)
  let eng = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.Engine.schedule eng ~delay:d (fun () -> fired := d :: !fired))
    [ 10; 20; 30; 40 ];
  Sim.Engine.run eng ~until:25;
  Sim.Engine.run eng ~until:35;
  Alcotest.(check (list int)) "30 survives the slice boundary" [ 10; 20; 30 ]
    (List.rev !fired);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "all fire across slices" [ 10; 20; 30; 40 ]
    (List.rev !fired);
  let ticks = ref 0 in
  let eng2 = Sim.Engine.create () in
  Sim.Engine.every eng2 ~period:10 (fun () ->
      incr ticks;
      !ticks < 100);
  (* many slice boundaries, none aligned with the ticks *)
  for i = 1 to 100 do
    Sim.Engine.run eng2 ~until:(i * 11)
  done;
  Alcotest.(check int) "periodic loop survives 100 slices" 100 !ticks

let test_stop () =
  let eng = Sim.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Sim.Engine.schedule eng ~delay:1 (fun () ->
        incr count;
        if !count = 3 then Sim.Engine.stop eng)
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "stopped after third event" 3 !count

let test_every () =
  let eng = Sim.Engine.create () in
  let ticks = ref 0 in
  Sim.Engine.every eng ~period:100 (fun () ->
      incr ticks;
      !ticks < 5);
  Sim.Engine.run eng;
  Alcotest.(check int) "five ticks" 5 !ticks;
  Alcotest.(check int) "stopped at t=500" 500 (Sim.Engine.now eng)

let test_every_phase () =
  let eng = Sim.Engine.create () in
  let first = ref (-1) in
  Sim.Engine.every eng ~period:100 ~phase:37 (fun () ->
      if !first < 0 then first := Sim.Engine.now eng;
      false);
  Sim.Engine.run eng;
  Alcotest.(check int) "first firing honours phase" 37 !first

let test_negative_delay_rejected () =
  let eng = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule eng ~delay:(-1) (fun () -> ()))

let test_determinism () =
  let run seed =
    let eng = Sim.Engine.create ~seed () in
    let rng = Sim.Engine.rng eng in
    let log = ref [] in
    let rec chain n =
      if n > 0 then
        Sim.Engine.schedule eng ~delay:(1 + Sim.Rng.int rng 100) (fun () ->
            log := Sim.Engine.now eng :: !log;
            chain (n - 1))
    in
    chain 50;
    Sim.Engine.run eng;
    !log
  in
  Alcotest.(check (list int)) "same seed, same trace" (run 42) (run 42);
  Alcotest.(check bool) "different seed, different trace" true
    (run 42 <> run 43)

let test_counters () =
  let eng = Sim.Engine.create () in
  Sim.Engine.schedule eng ~delay:1 (fun () -> ());
  Sim.Engine.schedule eng ~delay:2 (fun () -> ());
  Alcotest.(check int) "pending before run" 2 (Sim.Engine.pending_events eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "executed after run" 2 (Sim.Engine.executed_events eng);
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending_events eng)

let test_schedule_at_past_clamps () =
  let eng = Sim.Engine.create () in
  let fired = ref (-1) in
  Sim.Engine.schedule eng ~delay:100 (fun () ->
      (* scheduling into the past clamps to now *)
      Sim.Engine.schedule_at eng ~time:10 (fun () -> fired := Sim.Engine.now eng));
  Sim.Engine.run eng;
  Alcotest.(check int) "clamped to now" 100 !fired

(* A ticket takes a place in the event order without queueing anything:
   [passed] tells whether an event there would have run, inside the loop
   (before the executing event) and outside it (before every queued
   event, at or before now); [schedule_ticket] queues an event there. *)
let test_tickets () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let held = ref [] in
  Sim.Engine.schedule eng ~delay:10 (fun () ->
      (* places at 20: before and after the event queued next *)
      let before = Sim.Engine.ticket eng in
      Sim.Engine.schedule eng ~delay:10 (fun () ->
          log := "queued" :: !log;
          held :=
            [
              Sim.Engine.passed eng ~time:20 ~ticket:before;
              Sim.Engine.passed eng ~time:20 ~ticket:(before + 2);
            ]);
      let after = Sim.Engine.ticket eng in
      Sim.Engine.schedule_ticket eng ~time:20 ~ticket:before (fun () ->
          log := "first" :: !log);
      Alcotest.(check bool) "not yet inside the loop" false
        (Sim.Engine.passed eng ~time:20 ~ticket:after));
  Sim.Engine.run eng ~until:15;
  Alcotest.(check bool) "outside the loop: at or before now" true
    (Sim.Engine.passed eng ~time:15 ~ticket:max_int);
  Alcotest.(check bool) "outside the loop: not after now" false
    (Sim.Engine.passed eng ~time:16 ~ticket:0);
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "a ticket keeps its place" [ "first"; "queued" ]
    (List.rev !log);
  Alcotest.(check (list bool)) "inside: before the executing event only"
    [ true; false ] !held;
  Alcotest.(check bool) "outside, drained: everything at now" true
    (Sim.Engine.passed eng ~time:20 ~ticket:max_int)

let suite =
  [
    Alcotest.test_case "events fire in time order" `Quick test_time_ordering;
    Alcotest.test_case "same-instant events keep FIFO order" `Quick
      test_same_time_fifo;
    Alcotest.test_case "handlers can schedule" `Quick test_nested_scheduling;
    Alcotest.test_case "run ~until stops the clock" `Quick test_until_limit;
    Alcotest.test_case "run ~until keeps future events queued" `Quick
      test_until_preserves_future_events;
    Alcotest.test_case "stop halts the loop" `Quick test_stop;
    Alcotest.test_case "periodic task runs while true" `Quick test_every;
    Alcotest.test_case "periodic task honours phase" `Quick test_every_phase;
    Alcotest.test_case "negative delays rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "runs are deterministic" `Quick test_determinism;
    Alcotest.test_case "event counters" `Quick test_counters;
    Alcotest.test_case "tickets hold a place in the event order" `Quick
      test_tickets;
    Alcotest.test_case "past schedule_at clamps to now" `Quick
      test_schedule_at_past_clamps;
  ]
