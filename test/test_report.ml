(* Machine-readable run reports: schema, determinism (golden fixed-seed
   stability), phase instrumentation, Chrome-trace export. *)

module U = Unistore
module Client = U.Client
module Json = Sim.Json

(* A small fixed-seed run mixing causal and strong transactions. *)
let workload_run ?(seed = 42) () =
  let sys = Util.make_system ~seed ~trace_enabled:true () in
  U.System.set_window sys ~start:0 ~stop:5_000_000;
  for k = 1 to 4 do
    U.System.preload sys k (Crdt.Reg_write 0)
  done;
  for dc = 0 to 2 do
    ignore
      (U.System.spawn_client sys ~dc (fun c ->
           for i = 1 to 8 do
             let strong = i mod 4 = 0 in
             let rec attempt n =
               Client.start c ~strong;
               let k = 1 + ((i + dc) mod 4) in
               let v = Client.read_int c k in
               Client.update c k (Crdt.Reg_write (v + 1));
               match Client.commit c with
               | `Committed _ -> ()
               | `Aborted -> if n < 10 then attempt (n + 1)
             in
             attempt 0
           done))
  done;
  Util.run sys ~until:5_000_000;
  sys

let mem name j = Option.value ~default:Json.Null (Json.member name j)

let member_exn name j =
  match Json.member name j with
  | None | Some Json.Null -> Alcotest.failf "field %s missing" name
  | Some v -> v

let test_schema () =
  let sys = workload_run () in
  let j = U.Report.of_system ~name:"unit" sys in
  Alcotest.(check (option string))
    "name" (Some "unit")
    (Json.to_string_opt (member_exn "name" j));
  Alcotest.(check (option string))
    "mode" (Some "unistore")
    (Json.to_string_opt (member_exn "mode" j));
  Alcotest.(check (option int)) "seed" (Some 42)
    (Json.to_int_opt (member_exn "seed" j));
  List.iter
    (fun field -> ignore (member_exn field j))
    [
      "simulated_us"; "throughput_tx_s"; "committed"; "committed_strong";
      "aborted_strong"; "abort_rate_pct"; "latency"; "strong_phases";
      "metrics";
    ];
  let lat = member_exn "latency" j in
  List.iter
    (fun cls ->
      let l = member_exn cls lat in
      List.iter
        (fun f -> ignore (member_exn f l))
        [ "count"; "mean_ms"; "p50_ms"; "p90_ms"; "p99_ms" ])
    [ "all"; "causal"; "strong" ];
  (* the document round-trips through the JSON printer and parser *)
  match Json.of_string_opt (Json.to_string_pretty j) with
  | None -> Alcotest.fail "report does not parse back"
  | Some _ -> ()

(* The acceptance property of the observability layer: with a fixed seed
   the artifact is byte-identical across runs. *)
let test_fixed_seed_stable () =
  let render () =
    Json.to_string_pretty (U.Report.of_system ~name:"golden" (workload_run ()))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical artifact" a b

let test_seed_changes_artifact () =
  let render seed =
    Json.to_string_pretty
      (U.Report.of_system ~name:"golden" (workload_run ~seed ()))
  in
  Alcotest.(check bool) "different seed, different run" false
    (String.equal (render 42) (render 43))

let test_phase_breakdown_present () =
  let sys = workload_run () in
  let j = U.Report.of_system sys in
  let phases =
    match Json.to_list_opt (member_exn "strong_phases" j) with
    | Some l -> l
    | None -> Alcotest.fail "strong_phases not a list"
  in
  let names =
    List.filter_map (fun p -> Json.to_string_opt (mem "phase" p)) phases
  in
  Alcotest.(check (list string))
    "lifecycle order" [ "execute"; "uniform_wait"; "certify" ] names;
  List.iter
    (fun p ->
      match Json.to_int_opt (mem "count" p) with
      | Some n -> Alcotest.(check bool) "phase observed" true (n > 0)
      | None -> Alcotest.fail "count missing")
    phases;
  (* the text reporters print something for the same run *)
  Alcotest.(check bool) "breakdown prints" true
    (String.length (Fmt.str "%a" U.Report.pp_phase_breakdown sys) > 0);
  Alcotest.(check bool) "uniformity lag prints" true
    (String.length (Fmt.str "%a" U.Report.pp_uniformity_lag sys) > 0)

let test_lifecycle_metrics () =
  let sys = workload_run () in
  let reg = U.System.metrics sys in
  let counter name =
    Sim.Metrics.counter_value (Sim.Metrics.counter reg name)
  in
  let h = U.System.history sys in
  Alcotest.(check int) "strong_committed_total matches history"
    (U.History.committed_strong h)
    (counter "strong_committed_total");
  (* network counters saw traffic *)
  let sent =
    List.fold_left
      (fun acc (_, c) -> acc + Sim.Metrics.counter_value c)
      0
      (Sim.Metrics.counters_matching reg "net_sent_total")
  in
  Alcotest.(check bool) "messages counted" true (sent > 0)

let test_chrome_trace_valid () =
  let sys = workload_run () in
  let j = Sim.Trace.chrome_json (U.System.trace sys) in
  match Json.of_string_opt (Json.to_string j) with
  | None -> Alcotest.fail "chrome trace does not parse"
  | Some parsed -> (
      match Json.to_list_opt (mem "traceEvents" parsed) with
      | None -> Alcotest.fail "traceEvents missing"
      | Some events ->
          Alcotest.(check bool) "events present" true (List.length events > 0);
          (* every event has the required trace-event fields; duration
             events carry a dur *)
          List.iter
            (fun e ->
              match Json.to_string_opt (mem "ph" e) with
              | None -> Alcotest.fail "ph missing"
              | Some "M" -> ()
              | Some "X" ->
                  Alcotest.(check bool) "dur present" true
                    (Json.to_int_opt (mem "dur" e) <> None)
              | Some _ ->
                  Alcotest.(check bool) "ts present" true
                    (Json.to_int_opt (mem "ts" e) <> None))
            events;
          (* transaction lifecycle spans made it into the trace *)
          let has_kind k =
            List.exists
              (fun e ->
                match Json.to_string_opt (mem "name" e) with
                | Some n -> n = k
                | None -> false)
              events
          in
          Alcotest.(check bool) "certify spans" true (has_kind "certify");
          Alcotest.(check bool) "execute spans" true (has_kind "execute"))

let suite =
  [
    Alcotest.test_case "report schema" `Quick test_schema;
    Alcotest.test_case "fixed seed is byte-stable" `Quick
      test_fixed_seed_stable;
    Alcotest.test_case "seed changes the artifact" `Quick
      test_seed_changes_artifact;
    Alcotest.test_case "strong phase breakdown" `Quick
      test_phase_breakdown_present;
    Alcotest.test_case "lifecycle counters match history" `Quick
      test_lifecycle_metrics;
    Alcotest.test_case "chrome trace export is valid" `Quick
      test_chrome_trace_valid;
  ]
