(* Simulator self-profiling: label attribution, allocation accounting,
   folded-stack export, and the perfcheck gate. *)

module Prof = Sim.Prof
module Engine = Sim.Engine
module Json = Sim.Json

let mk_engine ?(profile = true) ?sample_every () =
  let eng = Engine.create ~seed:7 () in
  if profile then Prof.enable ?sample_every (Engine.prof eng);
  eng

(* Disabled profiling is zero-cost: no interning, no accounting. *)
let test_disabled_zero_cost () =
  let eng = mk_engine ~profile:false () in
  let p = Engine.prof eng in
  let l = Prof.label p "should/not/intern" in
  Alcotest.(check int) "label is none" Prof.none l;
  Alcotest.(check int) "nothing interned" 0 (Prof.interned p);
  Engine.schedule eng ~delay:10 (fun () -> ());
  Engine.schedule eng ~delay:20 ~label:l (fun () -> ());
  Engine.run eng;
  Alcotest.(check int) "no events accounted" 0 (Prof.total_events p);
  Alcotest.(check (list reject)) "no entries" [] (Prof.entries p)

(* Unlabelled events inherit the label of the event that scheduled
   them, so labelling a root attributes its whole cascade. *)
let test_label_inheritance () =
  let eng = mk_engine () in
  let p = Engine.prof eng in
  let root = Prof.label p "root/task" in
  let leaf = ref 0 in
  Engine.schedule eng ~delay:1 ~label:root (fun () ->
      (* two unlabelled children, one of which re-schedules again *)
      Engine.schedule eng ~delay:1 (fun () -> incr leaf);
      Engine.schedule eng ~delay:2 (fun () ->
          Engine.schedule eng ~delay:1 (fun () -> incr leaf)));
  (* an unlabelled root lands under "other" *)
  Engine.schedule eng ~delay:1 (fun () -> ());
  Engine.run eng;
  Alcotest.(check int) "cascade ran" 2 !leaf;
  Alcotest.(check int) "all events accounted" 5 (Prof.total_events p);
  Alcotest.(check int) "cascade attributed" 4 (Prof.attributed_events p);
  Alcotest.(check (float 0.01)) "coverage" 80.0 (Prof.coverage_pct p);
  match Prof.entries p with
  | [ a; b ] ->
      Alcotest.(check string) "busiest first" "root/task" a.Prof.e_label;
      Alcotest.(check int) "cascade size" 4 a.Prof.e_events;
      Alcotest.(check string) "unattributed kept" "other" b.Prof.e_label;
      Alcotest.(check int) "other size" 1 b.Prof.e_events
  | es -> Alcotest.failf "expected two entries, got %d" (List.length es)

(* [every] timers keep their label across re-arms; [current_label]
   reflects the executing event. *)
let test_timer_and_current_label () =
  let eng = mk_engine () in
  let p = Engine.prof eng in
  let tick = Prof.label p "timer/tick" in
  let seen = ref [] in
  let n = ref 0 in
  Engine.every eng ~label:tick ~period:10 (fun () ->
      seen := Engine.current_label eng :: !seen;
      incr n;
      !n < 3);
  Engine.run eng;
  Alcotest.(check int) "three firings" 3 !n;
  Alcotest.(check bool) "label visible while executing" true
    (List.for_all (Int.equal tick) !seen);
  Alcotest.(check int) "outside the loop" Prof.none
    (Engine.current_label eng);
  match Prof.entries p with
  | [ e ] ->
      Alcotest.(check string) "timer label" "timer/tick" e.Prof.e_label;
      Alcotest.(check int) "all firings counted" 3 e.Prof.e_events
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* Wall-clock is sampled every [sample_every]-th event using the
   injected clock; [run_wall_seconds] covers the whole run window. *)
let test_sampled_wall_and_run_window () =
  let eng = mk_engine ~sample_every:2 () in
  let p = Engine.prof eng in
  let now = ref 0.0 in
  Prof.set_clock p (fun () ->
      (* each reading advances the fake clock 1 ms *)
      let t = !now in
      now := t +. 0.001;
      t);
  let l = Prof.label p "work" in
  for i = 1 to 6 do
    Engine.schedule eng ~delay:i ~label:l (fun () -> ())
  done;
  Engine.run eng;
  Alcotest.(check bool) "run window measured" true
    (Engine.run_wall_seconds eng > 0.0);
  match Prof.entries p with
  | [ e ] ->
      Alcotest.(check int) "every 2nd event sampled" 3 e.Prof.e_wall_samples;
      (* each sample brackets the handler with two readings: 1 ms each *)
      Alcotest.(check (float 1e-9)) "sampled seconds" 0.003 e.Prof.e_wall_s
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* A profiled protocol run under a fixed seed is fully deterministic:
   identical per-label event counts and allocation deltas across
   reruns. This is the property the CI hard gate rests on. *)
let run_profiled_system ?link_faults () =
  let module U = Unistore in
  let cfg =
    U.Config.default ~partitions:2 ~seed:11 ~profile:true
      ~profile_sample_every:16 ?link_faults ()
  in
  let sys = U.System.create cfg in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for i = 1 to 20 do
           U.Client.start c;
           U.Client.update c i (Crdt.Reg_write i);
           ignore (U.Client.commit c)
         done));
  U.System.run sys ~until:2_000_000;
  let p = Engine.prof (U.System.engine sys) in
  (Prof.total_events p, Prof.entries p)

let test_determinism_across_reruns () =
  let t1, e1 = run_profiled_system () in
  let t2, e2 = run_profiled_system () in
  Alcotest.(check int) "same total" t1 t2;
  Alcotest.(check int) "same label count" (List.length e1) (List.length e2);
  Alcotest.(check bool) "profile is non-trivial" true (List.length e1 > 5);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "label" a.Prof.e_label b.Prof.e_label;
      Alcotest.(check int) a.Prof.e_label a.Prof.e_events b.Prof.e_events;
      (* words agree to within a small slack (the two runs share one
         process) *)
      let close x y =
        Alcotest.(check bool)
          (Fmt.str "words stable for %s (%.0f vs %.0f)" a.Prof.e_label x y)
          true
          (Float.abs (x -. y) <= 2048.0)
      in
      close a.Prof.e_minor_words b.Prof.e_minor_words;
      close a.Prof.e_major_words b.Prof.e_major_words)
    e1 e2

(* An event allocating 64 Ki words or more is one-off bulk work: it is
   set aside in the noise bucket instead of skewing the label's
   words/event. *)
let test_gc_noise_clamped () =
  let eng = mk_engine () in
  let p = Engine.prof eng in
  let l = Prof.label p "work" in
  let sink = ref [] in
  Engine.schedule eng ~delay:1 ~label:l (fun () -> ());
  Engine.schedule eng ~delay:2 ~label:l (fun () ->
      (* 50,000 minor-heap cons cells: 150 Ki words in one event *)
      sink := List.init 50_000 Fun.id);
  Engine.run eng;
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check int) "noise event counted" 1 (Prof.noise_events p);
  Alcotest.(check bool) "noise words recorded" true
    (Prof.noise_words p >= 100_000.0);
  match Prof.entries p with
  | [ e ] ->
      Alcotest.(check int) "both events kept" 2 e.Prof.e_events;
      Alcotest.(check bool) "label words not skewed" true
        (e.Prof.e_minor_words +. e.Prof.e_major_words < 65536.0)
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* The protocol stack attributes ~everything: handlers, timers, fibers,
   network internals all carry labels, and nothing is dropped. On
   reliable and lossy links alike a delivery is one event under its
   handler's label ("dcN/replica/handle:<kind>"); no transport arrival
   event ("net/deliver") exists. *)
let test_stack_coverage () =
  let _, entries = run_profiled_system () in
  let labels = List.map (fun e -> e.Prof.e_label) entries in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      labels
  in
  for dc = 0 to 2 do
    Alcotest.(check bool)
      (Fmt.str "dc%d replica handlers" dc)
      true
      (has (Fmt.str "dc%d/replica/handle:" dc))
  done;
  Alcotest.(check bool) "replica timers" true (has "dc0/replica/propagate");
  Alcotest.(check bool) "no arrival event on reliable links" false
    (has "net/deliver");
  Alcotest.(check bool) "client fiber" true (has "fiber/client");
  let _, lossy =
    run_profiled_system ~link_faults:Net.Faults.clean_spec ()
  in
  let lossy_has label =
    List.exists (fun e -> e.Prof.e_label = label) lossy
  in
  Alcotest.(check bool) "lossy-link deliveries: no arrival event" false
    (lossy_has "net/deliver");
  (* replication from dc0 crosses the lossy WAN links only *)
  for dc = 1 to 2 do
    Alcotest.(check bool)
      (Fmt.str "lossy-link deliveries run as dc%d replica handlers" dc)
      true
      (lossy_has (Fmt.str "dc%d/replica/handle:replicate" dc))
  done;
  let total = List.fold_left (fun a e -> a + e.Prof.e_events) 0 entries in
  let other =
    match List.find_opt (fun e -> e.Prof.e_label = "other") entries with
    | Some e -> e.Prof.e_events
    | None -> 0
  in
  Alcotest.(check bool) "coverage >= 95%" true
    (float_of_int (total - other) /. float_of_int total >= 0.95)

(* Folded-stack export: one "frame;frame;... weight" line per label,
   weights positive integers, '/' segments turned into ';' frames. *)
let test_folded_well_formed () =
  let _, entries = run_profiled_system () in
  let folded = Prof.folded_of_entries ~sample_every:16 entries in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' folded)
  in
  (* zero-weight labels (no wall samples) are omitted by design *)
  Alcotest.(check bool) "non-empty" true (List.length lines > 0);
  Alcotest.(check bool) "at most one line per label" true
    (List.length lines <= List.length entries);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no weight separator in %S" line
      | Some i ->
          let frames = String.sub line 0 i in
          let weight =
            String.sub line (i + 1) (String.length line - i - 1)
          in
          Alcotest.(check bool)
            (Fmt.str "weight positive in %S" line)
            true
            (match int_of_string_opt weight with
            | Some w -> w > 0
            | None -> false);
          Alcotest.(check bool)
            (Fmt.str "no '/' left in frames of %S" line)
            false
            (String.contains frames '/'))
    lines

(* The profile JSON document carries the gated fields. *)
let test_profile_json_shape () =
  let total, entries = run_profiled_system () in
  let j = Prof.entries_to_json ~sample_every:16 ~total_events:total entries in
  let int_field n =
    Option.bind (Json.member n j) Json.to_int_opt |> Option.get
  in
  Alcotest.(check int) "total_events" total (int_field "total_events");
  Alcotest.(check int) "sample_every" 16 (int_field "sample_every");
  Alcotest.(check bool) "coverage present" true
    (Option.is_some (Json.member "coverage_pct" j));
  let rows =
    Option.bind (Json.member "labels" j) Json.to_list_opt |> Option.get
  in
  Alcotest.(check int) "one row per entry" (List.length entries)
    (List.length rows);
  List.iter
    (fun row ->
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " present") true
            (Option.is_some (Json.member f row)))
        [ "label"; "events"; "words_per_event"; "minor_words" ])
    rows

(* --- the perfcheck gate ------------------------------------------- *)

let artifact ?(coverage = 99.0) ?(rate = 200_000.0) rows =
  Json.Obj
    [
      ("sim_events_per_sec", Json.Float rate);
      ( "profile",
        Json.Obj
          [
            ("coverage_pct", Json.Float coverage);
            ( "labels",
              Json.List
                (List.map
                   (fun (label, wpe, events) ->
                     Json.Obj
                       [
                         ("label", Json.String label);
                         ("events", Json.Int events);
                         ("words_per_event", Json.Float wpe);
                       ])
                   rows) );
          ] );
    ]

let test_perfgate_pass () =
  let a = artifact [ ("net/deliver", 100.0, 5000); ("wal/fsync", 40.0, 800) ] in
  let baseline = Sim.Perfgate.baseline_of_artifact a in
  let r = Sim.Perfgate.check ~baseline ~artifact:a in
  Alcotest.(check bool) "fresh baseline passes" true (Sim.Perfgate.ok r);
  Alcotest.(check (list string)) "no warnings" [] r.Sim.Perfgate.warnings

let test_perfgate_budget_exceeded () =
  let base = artifact [ ("net/deliver", 100.0, 5000) ] in
  let baseline = Sim.Perfgate.baseline_of_artifact base in
  (* 5% headroom + 10% tolerance ≈ 15.5% ceiling: +30% must fail *)
  let bloated = artifact [ ("net/deliver", 130.0, 5000) ] in
  let r = Sim.Perfgate.check ~baseline ~artifact:bloated in
  Alcotest.(check bool) "regression caught" false (Sim.Perfgate.ok r);
  Alcotest.(check int) "one failure" 1 (List.length r.Sim.Perfgate.failures);
  (* +12% sits inside headroom+tolerance: still fine *)
  let mild = artifact [ ("net/deliver", 112.0, 5000) ] in
  Alcotest.(check bool) "within tolerance passes" true
    (Sim.Perfgate.ok (Sim.Perfgate.check ~baseline ~artifact:mild))

let test_perfgate_missing_label () =
  let base =
    artifact [ ("net/deliver", 100.0, 5000); ("wal/fsync", 40.0, 800) ]
  in
  let baseline = Sim.Perfgate.baseline_of_artifact base in
  (* instrumentation silently lost a budgeted label *)
  let partial = artifact [ ("net/deliver", 100.0, 5000) ] in
  let r = Sim.Perfgate.check ~baseline ~artifact:partial in
  Alcotest.(check bool) "missing label fails" false (Sim.Perfgate.ok r)

let test_perfgate_coverage_floor () =
  let a = artifact [ ("net/deliver", 100.0, 5000) ] in
  let baseline = Sim.Perfgate.baseline_of_artifact a in
  let degraded = artifact ~coverage:80.0 [ ("net/deliver", 100.0, 5000) ] in
  let r = Sim.Perfgate.check ~baseline ~artifact:degraded in
  Alcotest.(check bool) "coverage drop fails" false (Sim.Perfgate.ok r)

let test_perfgate_advisory_only_warns () =
  let a = artifact [ ("net/deliver", 100.0, 5000) ] in
  let baseline = Sim.Perfgate.baseline_of_artifact a in
  (* slow run + a busy unbudgeted label + a tiny unbudgeted label *)
  let noisy =
    artifact ~rate:1000.0
      [
        ("net/deliver", 100.0, 5000);
        ("new/subsystem", 999.0, 5000);
        ("tiny/label", 999.0, 3);
      ]
  in
  let r = Sim.Perfgate.check ~baseline ~artifact:noisy in
  Alcotest.(check bool) "advisory issues do not gate" true
    (Sim.Perfgate.ok r);
  (* throughput floor + busy unbudgeted label; the tiny one is ignored *)
  Alcotest.(check int) "two warnings" 2
    (List.length r.Sim.Perfgate.warnings)

let test_perfgate_no_profile_section () =
  let a = artifact [ ("net/deliver", 100.0, 5000) ] in
  let baseline = Sim.Perfgate.baseline_of_artifact a in
  let r =
    Sim.Perfgate.check ~baseline ~artifact:(Json.Obj [ ("x", Json.Int 1) ])
  in
  Alcotest.(check bool) "profile-less artifact fails" false
    (Sim.Perfgate.ok r)

let test_perfgate_baseline_floor () =
  (* labels below min_events get no budget — too noisy to gate on *)
  let a = artifact [ ("busy", 10.0, 5000); ("quiet", 10.0, 12) ] in
  let baseline = Sim.Perfgate.baseline_of_artifact a in
  let budgets =
    Option.bind (Json.member "budgets" baseline) Json.to_list_opt
    |> Option.get
    |> List.filter_map (fun b ->
           Option.bind (Json.member "label" b) Json.to_string_opt)
  in
  Alcotest.(check (list string)) "only busy labels budgeted" [ "busy" ]
    budgets

(* A re-pin keeps the advisory floor it replaces: one run's wall-clock
   rate would move it by chance. Without a previous floor, half the
   measured rate. *)
let test_perfgate_init_keeps_floor () =
  let floor b = Option.bind (Json.member "events_per_sec_floor" b) Json.to_float_opt in
  let a = artifact ~rate:200_000.0 [ ("busy", 10.0, 5000) ] in
  let previous =
    Json.Obj [ ("events_per_sec_floor", Json.Float 358_771.5); ("budgets", Json.List []) ]
  in
  Alcotest.(check (option (float 0.0))) "previous floor kept" (Some 358_771.5)
    (floor (Sim.Perfgate.baseline_of_artifact ~previous a));
  Alcotest.(check (option (float 0.0))) "fresh floor is half the rate"
    (Some 100_000.0)
    (floor (Sim.Perfgate.baseline_of_artifact a));
  Alcotest.(check (option (float 0.0))) "a floorless baseline gets one"
    (Some 100_000.0)
    (floor
       (Sim.Perfgate.baseline_of_artifact ~previous:(Json.Obj [ ("budgets", Json.List []) ]) a))

let suite =
  [
    Alcotest.test_case "disabled profiling is zero-cost" `Quick
      test_disabled_zero_cost;
    Alcotest.test_case "unlabelled events inherit the scheduler's label"
      `Quick test_label_inheritance;
    Alcotest.test_case "timer labels and current_label" `Quick
      test_timer_and_current_label;
    Alcotest.test_case "sampled wall-clock and run window" `Quick
      test_sampled_wall_and_run_window;
    Alcotest.test_case "profiled runs are deterministic" `Quick
      test_determinism_across_reruns;
    Alcotest.test_case "GC-boundary noise is discarded" `Quick
      test_gc_noise_clamped;
    Alcotest.test_case "protocol stack is >= 95% attributed" `Quick
      test_stack_coverage;
    Alcotest.test_case "folded-stack export is well-formed" `Quick
      test_folded_well_formed;
    Alcotest.test_case "profile JSON carries the gated fields" `Quick
      test_profile_json_shape;
    Alcotest.test_case "perfcheck: fresh baseline passes" `Quick
      test_perfgate_pass;
    Alcotest.test_case "perfcheck: budget regression fails" `Quick
      test_perfgate_budget_exceeded;
    Alcotest.test_case "perfcheck: missing budgeted label fails" `Quick
      test_perfgate_missing_label;
    Alcotest.test_case "perfcheck: coverage floor fails" `Quick
      test_perfgate_coverage_floor;
    Alcotest.test_case "perfcheck: advisory issues only warn" `Quick
      test_perfgate_advisory_only_warns;
    Alcotest.test_case "perfcheck: artifact without profile fails" `Quick
      test_perfgate_no_profile_section;
    Alcotest.test_case "perfcheck: --init keeps the advisory floor" `Quick
      test_perfgate_init_keeps_floor;
    Alcotest.test_case "perfcheck: tiny labels are not budgeted" `Quick
      test_perfgate_baseline_floor;
  ]
