(* Structured event tracing. *)

let mk ?(capacity = 100) ?(enabled = true) clock =
  Sim.Trace.create ~capacity ~clock ~enabled ()

let test_emit_and_read () =
  let now = ref 0 in
  let tr = mk (fun () -> !now) in
  Sim.Trace.emit tr ~source:"a" ~kind:"x" "first";
  now := 10;
  Sim.Trace.emit tr ~source:"b" ~kind:"y" "second";
  Alcotest.(check int) "length" 2 (Sim.Trace.length tr);
  match Sim.Trace.events tr with
  | [ e1; e2 ] ->
      Alcotest.(check int) "timestamps" 0 e1.Sim.Trace.ev_time;
      Alcotest.(check int) "timestamps" 10 e2.Sim.Trace.ev_time;
      Alcotest.(check string) "detail" "second" e2.Sim.Trace.ev_detail
  | _ -> Alcotest.fail "expected two events"

let test_filters () =
  let tr = mk (fun () -> 0) in
  Sim.Trace.emit tr ~source:"r1" ~kind:"commit" "a";
  Sim.Trace.emit tr ~source:"r1" ~kind:"replicate" "b";
  Sim.Trace.emit tr ~source:"r2" ~kind:"commit" "c";
  Alcotest.(check int) "by kind" 2 (Sim.Trace.count ~kind:"commit" tr);
  Alcotest.(check int) "by source" 2 (Sim.Trace.count ~source:"r1" tr);
  Alcotest.(check int) "by both" 1
    (Sim.Trace.count ~source:"r1" ~kind:"commit" tr)

let test_disabled_is_noop () =
  let tr = Sim.Trace.disabled in
  Sim.Trace.emit tr ~source:"a" ~kind:"x" "ignored";
  Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.length tr);
  Alcotest.(check bool) "disabled" false (Sim.Trace.enabled tr)

(* A disabled trace formats nothing: no printer of an [emitf] argument
   runs, so a call site pays for its detail string only when tracing. *)
let test_disabled_emitf_formats_nothing () =
  Sim.Trace.emitf Sim.Trace.disabled ~source:"a" ~kind:"x" "%a"
    (fun _ () -> failwith "formatted")
    ();
  Alcotest.(check int) "nothing recorded" 0
    (Sim.Trace.length Sim.Trace.disabled);
  (* an enabled trace still formats *)
  let tr = mk (fun () -> 0) in
  Sim.Trace.emitf tr ~source:"a" ~kind:"x" "%d-%s" 7 "y";
  match Sim.Trace.events tr with
  | [ e ] -> Alcotest.(check string) "detail" "7-y" e.Sim.Trace.ev_detail
  | es -> Alcotest.failf "expected one event, got %d" (List.length es)

let test_capacity_drops () =
  let tr = mk ~capacity:3 (fun () -> 0) in
  for i = 1 to 5 do
    Sim.Trace.emit tr ~source:"a" ~kind:"x" (string_of_int i)
  done;
  Alcotest.(check int) "capped" 3 (Sim.Trace.length tr);
  Alcotest.(check int) "drops counted" 2 (Sim.Trace.dropped tr)

let test_between () =
  let now = ref 0 in
  let tr = mk (fun () -> !now) in
  List.iter
    (fun t ->
      now := t;
      Sim.Trace.emit tr ~source:"a" ~kind:"x" "e")
    [ 5; 15; 25; 35 ];
  Alcotest.(check int) "interval" 2
    (List.length (Sim.Trace.between tr ~start:10 ~stop:30))

let test_summary () =
  let tr = mk (fun () -> 0) in
  for _ = 1 to 3 do
    Sim.Trace.emit tr ~source:"a" ~kind:"commit" ""
  done;
  Sim.Trace.emit tr ~source:"a" ~kind:"deliver" "";
  Alcotest.(check (list (pair string int)))
    "histogram sorted"
    [ ("commit", 3); ("deliver", 1) ]
    (Sim.Trace.summary tr)

let test_growth_boundary () =
  (* the backing array starts at 4096 and doubles up to capacity: filling
     straight through the growth boundary loses nothing and keeps order *)
  let tr = mk ~capacity:6000 (fun () -> 0) in
  for i = 1 to 6000 do
    Sim.Trace.emit tr ~source:"a" ~kind:"x" (string_of_int i)
  done;
  Alcotest.(check int) "all kept" 6000 (Sim.Trace.length tr);
  Alcotest.(check int) "no drops" 0 (Sim.Trace.dropped tr);
  (match Sim.Trace.events tr with
  | first :: _ -> Alcotest.(check string) "order kept" "1" first.Sim.Trace.ev_detail
  | [] -> Alcotest.fail "no events");
  Sim.Trace.emit tr ~source:"a" ~kind:"x" "overflow";
  Alcotest.(check int) "capped at capacity" 6000 (Sim.Trace.length tr);
  Alcotest.(check int) "overflow dropped" 1 (Sim.Trace.dropped tr)

let test_spans () =
  let now = ref 50 in
  let tr = mk (fun () -> !now) in
  Sim.Trace.emit_span tr ~source:"c" ~kind:"certify" ~start:20 "tx";
  (* a span whose clock ran backwards clamps to zero duration *)
  Sim.Trace.emit_span tr ~source:"c" ~kind:"weird" ~start:90 "tx";
  match Sim.Trace.events tr with
  | [ s1; s2 ] ->
      Alcotest.(check int) "span start" 20 s1.Sim.Trace.ev_time;
      Alcotest.(check int) "span duration" 30 s1.Sim.Trace.ev_dur;
      Alcotest.(check int) "clamped duration" 0 s2.Sim.Trace.ev_dur
  | _ -> Alcotest.fail "expected two spans"

let test_chrome_export () =
  let now = ref 0 in
  let tr = mk (fun () -> !now) in
  Sim.Trace.emit tr ~source:"replica 0.0" ~kind:"commit" "t1";
  now := 40;
  Sim.Trace.emit_span tr ~source:"client 1" ~kind:"execute" ~start:10 "t2";
  let j = Sim.Trace.chrome_json tr in
  match Sim.Json.of_string_opt (Sim.Json.to_string j) with
  | None -> Alcotest.fail "chrome export does not parse"
  | Some parsed -> (
      match
        Option.bind (Sim.Json.member "traceEvents" parsed) Sim.Json.to_list_opt
      with
      | None -> Alcotest.fail "traceEvents missing"
      | Some events ->
          let phs =
            List.filter_map
              (fun e ->
                Option.bind (Sim.Json.member "ph" e) Sim.Json.to_string_opt)
              events
          in
          (* two thread-name metadata records, one instant, one span *)
          Alcotest.(check int) "metadata per source" 2
            (List.length (List.filter (String.equal "M") phs));
          Alcotest.(check int) "one instant" 1
            (List.length (List.filter (String.equal "i") phs));
          Alcotest.(check int) "one duration event" 1
            (List.length (List.filter (String.equal "X") phs)))

(* End-to-end: a traced protocol run produces commit and replication
   events with plausible structure. *)
let test_protocol_trace () =
  let module U = Unistore in
  let cfg =
    U.Config.default ~partitions:2 ~trace_enabled:true ()
  in
  let sys = U.System.create cfg in
  ignore
    (U.System.spawn_client sys ~dc:0 (fun c ->
         for i = 1 to 5 do
           U.Client.start c;
           U.Client.update c i (Crdt.Reg_write i);
           ignore (U.Client.commit c)
         done));
  U.System.run sys ~until:1_000_000;
  let tr = U.System.trace sys in
  Alcotest.(check bool) "commits traced" true
    (Sim.Trace.count ~kind:"commit" tr >= 5);
  Alcotest.(check bool) "replication traced" true
    (Sim.Trace.count ~kind:"replicate" tr > 0);
  (* commit events appear at the origin DC's replicas *)
  Alcotest.(check bool) "origin source labelled" true
    (List.for_all
       (fun e ->
         String.length e.Sim.Trace.ev_source > 0
         && String.sub e.Sim.Trace.ev_source 0 9 = "replica 0")
       (Sim.Trace.events ~kind:"commit" tr))

let suite =
  [
    Alcotest.test_case "emit and read back" `Quick test_emit_and_read;
    Alcotest.test_case "source/kind filters" `Quick test_filters;
    Alcotest.test_case "disabled trace is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "disabled emitf formats nothing" `Quick
      test_disabled_emitf_formats_nothing;
    Alcotest.test_case "capacity bounds the log" `Quick test_capacity_drops;
    Alcotest.test_case "time-interval filter" `Quick test_between;
    Alcotest.test_case "growth through the doubling boundary" `Quick
      test_growth_boundary;
    Alcotest.test_case "duration spans" `Quick test_spans;
    Alcotest.test_case "chrome trace-event export" `Quick test_chrome_export;
    Alcotest.test_case "per-kind summary" `Quick test_summary;
    Alcotest.test_case "protocol runs leave a readable trace" `Quick
      test_protocol_trace;
  ]
