(* Cooperative fibers and ivars over the simulation engine. *)

module Fiber = Sim.Fiber
module Ivar = Sim.Fiber.Ivar

let test_sleep () =
  let eng = Sim.Engine.create () in
  let woke = ref (-1) in
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1234;
      woke := Sim.Engine.now eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "woke at the right instant" 1234 !woke

let test_await_filled_later () =
  let eng = Sim.Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Fiber.spawn eng (fun () -> got := Fiber.await iv);
  Sim.Engine.schedule eng ~delay:100 (fun () -> Ivar.fill eng iv 99);
  Sim.Engine.run eng;
  Alcotest.(check int) "received the value" 99 !got

let test_await_already_filled () =
  let eng = Sim.Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill eng iv 7;
  let got = ref 0 in
  Fiber.spawn eng (fun () -> got := Fiber.await iv);
  Sim.Engine.run eng;
  Alcotest.(check int) "immediate value" 7 !got

(* An ivar has one waiter: a second fiber awaiting it is refused, and
   the first still receives the value. *)
let test_second_await_raises () =
  let eng = Sim.Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 and refused = ref false in
  Fiber.spawn eng (fun () -> got := Fiber.await iv);
  Fiber.spawn eng (fun () ->
      try ignore (Fiber.await iv)
      with Invalid_argument _ -> refused := true);
  Sim.Engine.schedule eng ~delay:10 (fun () -> Ivar.fill eng iv 3);
  Sim.Engine.run eng;
  Alcotest.(check bool) "the second await raised" true !refused;
  Alcotest.(check int) "the first waiter woke" 3 !got

let test_double_fill_raises () =
  let eng = Sim.Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill eng iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Ivar.fill eng iv 2)

let test_ping_pong () =
  let eng = Sim.Engine.create () in
  let a = ref (Ivar.create ()) and b = ref (Ivar.create ()) in
  let log = ref [] in
  Fiber.spawn eng (fun () ->
      for i = 1 to 3 do
        let x = Fiber.await !a in
        log := ("pong " ^ string_of_int x) :: !log;
        let next = Ivar.create () in
        let cur_b = !b in
        b := Ivar.create ();
        let fresh_b = !b in
        ignore next;
        Ivar.fill eng cur_b i;
        ignore fresh_b
      done);
  Fiber.spawn eng (fun () ->
      for i = 1 to 3 do
        Fiber.sleep 10;
        let cur_a = !a in
        a := Ivar.create ();
        Ivar.fill eng cur_a i;
        let x = Fiber.await !b in
        log := ("ping got " ^ string_of_int x) :: !log
      done);
  Sim.Engine.run eng;
  Alcotest.(check int) "six exchanges" 6 (List.length !log)

let test_sequential_composition () =
  (* a fiber that awaits several ivars in sequence keeps direct style *)
  let eng = Sim.Engine.create () in
  let ivs = List.init 5 (fun _ -> Ivar.create ()) in
  let order = ref [] in
  Fiber.spawn eng (fun () ->
      List.iteri (fun i iv -> order := (i, Fiber.await iv) :: !order) ivs);
  List.iteri
    (fun i iv ->
      Sim.Engine.schedule eng ~delay:((5 - i) * 10) (fun () ->
          Ivar.fill eng iv (i * 2)))
    ivs;
  Sim.Engine.run eng;
  (* fills arrive in reverse time order, but the fiber consumes in list
     order, resuming only when the next ivar it awaits is filled *)
  Alcotest.(check (list (pair int int)))
    "sequence respected"
    [ (0, 0); (1, 2); (2, 4); (3, 6); (4, 8) ]
    (List.rev !order)

let test_exception_propagates () =
  let eng = Sim.Engine.create () in
  Fiber.spawn eng (fun () -> failwith "boom");
  Alcotest.check_raises "fiber exception surfaces" (Failure "boom")
    (fun () -> Sim.Engine.run eng)

let test_spawn_inside_fiber () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Fiber.spawn eng (fun () ->
      log := "outer" :: !log;
      Fiber.spawn eng (fun () ->
          Fiber.sleep 5;
          log := "inner" :: !log);
      Fiber.sleep 10;
      log := "outer-done" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "nested spawn interleaves"
    [ "outer"; "inner"; "outer-done" ]
    (List.rev !log)

(* A filled ivar's waiter resumes at the filler's instant, after the
   filling event has returned and before an event already queued for
   that instant. *)
let test_wakeup_after_filling_event () =
  let eng = Sim.Engine.create () in
  let iv = Ivar.create () in
  let log = ref [] in
  let note s = log := Printf.sprintf "%s@%d" s (Sim.Engine.now eng) :: !log in
  Fiber.spawn eng (fun () -> note ("woke " ^ string_of_int (Fiber.await iv)));
  Sim.Engine.schedule eng ~delay:10 (fun () ->
      Ivar.fill eng iv 1;
      note "filler returns");
  Sim.Engine.schedule eng ~delay:10 (fun () -> note "queued event");
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "resumed inside the filling event, after its handler"
    [ "filler returns@10"; "woke 1@10"; "queued event@10" ]
    (List.rev !log)

(* Resuming a fiber costs no engine event: a fiber awaiting three ivars
   filled by three events runs in four events (its start and the three
   fillers), the same as the fillers alone plus the spawn. *)
let test_wakeup_adds_no_event () =
  let eng = Sim.Engine.create () in
  let ivs = List.init 3 (fun _ -> Ivar.create ()) in
  let got = ref [] in
  Fiber.spawn eng (fun () -> got := List.map Fiber.await ivs);
  List.iteri
    (fun i iv ->
      Sim.Engine.schedule eng ~delay:(10 * (i + 1)) (fun () ->
          Ivar.fill eng iv i))
    ivs;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "all values received" [ 0; 1; 2 ] !got;
  Alcotest.(check int) "spawn plus the three fillers" 4
    (Sim.Engine.executed_events eng)

(* [Engine.defer] runs after the current thunk, in FIFO order, draining
   defers queued by running defers before the next event. *)
let test_defer_nested_fifo () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  Sim.Engine.schedule eng ~delay:5 (fun () ->
      Sim.Engine.defer eng (fun () ->
          note "a";
          Sim.Engine.defer eng (fun () -> note "c"));
      Sim.Engine.defer eng (fun () ->
          note "b";
          Sim.Engine.defer eng (fun () -> note "d"));
      note "event");
  Sim.Engine.schedule eng ~delay:5 (fun () -> note "next");
  Sim.Engine.run eng;
  Alcotest.(check (list string))
    "event, then its defers breadth-first, then the next event"
    [ "event"; "a"; "b"; "c"; "d"; "next" ]
    (List.rev !log);
  Alcotest.(check int) "defers are not events" 2
    (Sim.Engine.executed_events eng)

(* Outside the run loop there is no event to join: a defer becomes an
   event of its own at the current instant. *)
let test_defer_outside_run () =
  let eng = Sim.Engine.create () in
  let ran = ref false in
  Sim.Engine.defer eng (fun () -> ran := true);
  Alcotest.(check bool) "not run inline" false !ran;
  Sim.Engine.run eng;
  Alcotest.(check bool) "ran as an event" true !ran;
  Alcotest.(check int) "one event" 1 (Sim.Engine.executed_events eng)

(* One await/fill/resume cycle's allocation is pinned: the fiber parks
   its own continuation on the ivar, and the fill defers the fiber's
   resume function, built once at spawn. A fiber awaits 1,000 ivars in
   turn, each filled by an event queued beforehand. *)
let test_await_cycle_alloc () =
  let n = 1_000 in
  let eng = Sim.Engine.create () in
  let ivs = Array.init (n + 1) (fun _ -> Ivar.create ()) in
  let sum = ref 0 in
  Fiber.spawn eng (fun () ->
      Array.iter (fun iv -> sum := !sum + Fiber.await iv) ivs);
  Array.iteri
    (fun i iv ->
      Sim.Engine.schedule eng ~delay:(10 * (i + 1)) (fun () ->
          Ivar.fill eng iv 1))
    ivs;
  (* start the fiber and run its first cycle *)
  Sim.Engine.run eng ~until:10;
  let w0 = Gc.minor_words () in
  Sim.Engine.run eng;
  let words_per_cycle = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every fill received" (n + 1) !sum;
  Alcotest.(check bool)
    (Fmt.str "%.1f words per cycle (at most 12)" words_per_cycle)
    true
    (words_per_cycle <= 12.)

let suite =
  [
    Alcotest.test_case "sleep wakes at the right time" `Quick test_sleep;
    Alcotest.test_case "await blocks until fill" `Quick test_await_filled_later;
    Alcotest.test_case "await on a filled ivar" `Quick
      test_await_already_filled;
    Alcotest.test_case "a second await on one ivar raises" `Quick
      test_second_await_raises;
    Alcotest.test_case "double fill rejected" `Quick test_double_fill_raises;
    Alcotest.test_case "two fibers exchange messages" `Quick test_ping_pong;
    Alcotest.test_case "sequential awaits stay ordered" `Quick
      test_sequential_composition;
    Alcotest.test_case "exceptions propagate out of fibers" `Quick
      test_exception_propagates;
    Alcotest.test_case "fibers can spawn fibers" `Quick test_spawn_inside_fiber;
    Alcotest.test_case "a waiter resumes after the filling event" `Quick
      test_wakeup_after_filling_event;
    Alcotest.test_case "resuming a fiber adds no engine event" `Quick
      test_wakeup_adds_no_event;
    Alcotest.test_case "defers drain nested, in FIFO order" `Quick
      test_defer_nested_fifo;
    Alcotest.test_case "a defer outside the run loop is an event" `Quick
      test_defer_outside_run;
    Alcotest.test_case "an await/fill/resume cycle's allocation is pinned"
      `Quick test_await_cycle_alloc;
  ]
