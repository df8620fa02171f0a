(* Metrics registry: counters, gauges, log-bucketed histograms, snapshot
   JSON. *)

module M = Sim.Metrics

let test_counters () =
  let reg = M.create () in
  let c = M.counter reg "requests_total" in
  M.incr c;
  M.add c 4;
  Alcotest.(check int) "value" 5 (M.counter_value c);
  (* same (name, labels) interns to the same counter *)
  let c' = M.counter reg "requests_total" in
  M.incr c';
  Alcotest.(check int) "interned" 6 (M.counter_value c);
  (* different labels are a different counter; label order is canonical *)
  let a = M.counter reg ~labels:[ ("k", "1"); ("j", "2") ] "requests_total" in
  let b = M.counter reg ~labels:[ ("j", "2"); ("k", "1") ] "requests_total" in
  M.incr a;
  Alcotest.(check int) "label order canonical" 1 (M.counter_value b);
  Alcotest.(check int) "unlabelled unaffected" 6 (M.counter_value c)

let test_gauges () =
  let reg = M.create () in
  let g = M.gauge reg "depth" in
  M.set g 3.0;
  M.set g 7.0;
  M.set g 2.0;
  Alcotest.(check (float 0.001)) "value" 2.0 (M.gauge_value g);
  Alcotest.(check (float 0.001)) "max" 7.0 (M.gauge_max g);
  M.gauge_add g 10.0;
  M.gauge_add g (-4.0);
  Alcotest.(check (float 0.001)) "delta updates" 8.0 (M.gauge_value g);
  Alcotest.(check (float 0.001)) "max tracks deltas" 12.0 (M.gauge_max g);
  (* a gauge first set to a negative value records it as the max too *)
  let n = M.gauge reg "neg" in
  M.set n (-5.0);
  Alcotest.(check (float 0.001)) "negative first max" (-5.0) (M.gauge_max n)

let test_bucket_boundaries () =
  (* bucket i covers [2^(i/8), 2^((i+1)/8)): adjacent buckets tile the
     positive axis and every observation lands in the bucket whose
     bounds contain it *)
  for i = 0 to 40 do
    let lower, upper = M.bucket_bounds i in
    let lower', _ = M.bucket_bounds (i + 1) in
    Alcotest.(check (float 1e-9)) "buckets tile" upper lower';
    Alcotest.(check bool) "octave width" true
      (upper /. lower > 1.0 && upper /. lower < 1.10)
  done;
  let reg = M.create () in
  let h = M.histogram reg "h" in
  List.iter (M.observe h) [ 1; 2; 3; 100; 1000; 1_000_000 ];
  List.iter
    (fun (i, lower, upper, count) ->
      Alcotest.(check bool) "bucket non-empty" true (count > 0);
      if i >= 0 then begin
        let l, u = M.bucket_bounds i in
        Alcotest.(check (float 1e-9)) "reported lower" l lower;
        Alcotest.(check (float 1e-9)) "reported upper" u upper
      end)
    (M.h_buckets h);
  (* each observed value is inside some reported bucket *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%d covered" v)
        true
        (List.exists
           (fun (_, lower, upper, _) ->
             float_of_int v >= lower && float_of_int v < upper)
           (M.h_buckets h)))
    [ 1; 2; 3; 100; 1000; 1_000_000 ]

let test_histogram_stats () =
  let reg = M.create () in
  let h = M.histogram reg "lat" in
  Alcotest.(check (option (float 0.0))) "empty mean" None (M.h_mean h);
  Alcotest.(check (option (float 0.0))) "empty pct" None (M.h_percentile h 50.0);
  for v = 1 to 1000 do
    M.observe h v
  done;
  Alcotest.(check int) "count" 1000 (M.h_count h);
  Alcotest.(check (option int)) "min exact" (Some 1) (M.h_min h);
  Alcotest.(check (option int)) "max exact" (Some 1000) (M.h_max h);
  Alcotest.(check (float 0.001)) "sum" 500500.0 (M.h_sum h);
  (* p0/p100 clamp to the exact tracked extremes *)
  Alcotest.(check (option (float 0.001))) "p0" (Some 1.0) (M.h_percentile h 0.0);
  Alcotest.(check (option (float 0.001)))
    "p100" (Some 1000.0)
    (M.h_percentile h 100.0)

(* Bucketed percentiles stay within one bucket width (~9%) of the exact
   percentile computed by Stats on the same samples. *)
let test_percentile_vs_exact () =
  let reg = M.create () in
  let h = M.histogram reg "cmp" in
  let s = Sim.Stats.create_samples () in
  let rng = Sim.Rng.create 7 in
  for _ = 1 to 5_000 do
    let v = 1 + Sim.Rng.int rng 100_000 in
    M.observe h v;
    Sim.Stats.add s v
  done;
  List.iter
    (fun p ->
      let exact = Sim.Stats.percentile s p in
      match M.h_percentile h p with
      | None -> Alcotest.fail "estimate missing"
      | Some est ->
          let rel = Float.abs (est -. exact) /. exact in
          Alcotest.(check bool)
            (Printf.sprintf "p%.0f within a bucket (exact %.0f, est %.0f)" p
               exact est)
            true (rel < 0.095))
    [ 10.0; 50.0; 90.0; 99.0 ]

let test_nonpositive_bucket () =
  let reg = M.create () in
  let h = M.histogram reg "z" in
  M.observe h 0;
  M.observe h (-3);
  M.observe h 5;
  (match M.h_buckets h with
  | (-1, _, _, n) :: _ -> Alcotest.(check int) "zero bucket" 2 n
  | _ -> Alcotest.fail "expected the non-positive bucket first");
  Alcotest.(check (option int)) "min is negative" (Some (-3)) (M.h_min h);
  (* the median falls in the non-positive bucket: reported as min clamped
     to 0 *)
  Alcotest.(check (option (float 0.001)))
    "median in zero bucket" (Some 0.0)
    (M.h_percentile h 50.0)

let test_matching_sorted () =
  let reg = M.create () in
  ignore (M.histogram reg ~labels:[ ("phase", "certify") ] "strong_phase_us");
  ignore (M.histogram reg ~labels:[ ("phase", "execute") ] "strong_phase_us");
  ignore (M.histogram reg "other");
  let labels =
    List.map (fun (l, _) -> List.assoc "phase" l)
      (M.histograms_matching reg "strong_phase_us")
  in
  Alcotest.(check (list string)) "sorted by labels"
    [ "certify"; "execute" ] labels

let test_snapshot_json () =
  let reg = M.create () in
  M.incr (M.counter reg ~labels:[ ("kind", "prepare") ] "net_sent_total");
  M.set (M.gauge reg "backlog") 4.0;
  M.observe (M.histogram reg "lat") 100;
  let rendered = Sim.Json.to_string (M.to_json reg) in
  match Sim.Json.of_string_opt rendered with
  | None -> Alcotest.fail "snapshot JSON does not parse"
  | Some j ->
      let section name =
        match Option.bind (Sim.Json.member name j) Sim.Json.to_list_opt with
        | Some l -> l
        | None -> Alcotest.fail (name ^ " missing")
      in
      Alcotest.(check int) "one counter" 1 (List.length (section "counters"));
      Alcotest.(check int) "one gauge" 1 (List.length (section "gauges"));
      Alcotest.(check int) "one histogram" 1
        (List.length (section "histograms"));
      let c = List.hd (section "counters") in
      Alcotest.(check (option string))
        "counter name" (Some "net_sent_total")
        (Option.bind (Sim.Json.member "name" c) Sim.Json.to_string_opt);
      Alcotest.(check (option string))
        "counter labels" (Some "prepare")
        (Option.bind (Sim.Json.member "labels" c) (fun l ->
             Option.bind (Sim.Json.member "kind" l) Sim.Json.to_string_opt))

let suite =
  [
    Alcotest.test_case "counters intern and count" `Quick test_counters;
    Alcotest.test_case "gauges track value and max" `Quick test_gauges;
    Alcotest.test_case "bucket boundaries tile the axis" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "histogram stats and exact tails" `Quick
      test_histogram_stats;
    Alcotest.test_case "bucketed percentiles near exact" `Quick
      test_percentile_vs_exact;
    Alcotest.test_case "non-positive observations" `Quick
      test_nonpositive_bucket;
    Alcotest.test_case "matching is label-sorted" `Quick test_matching_sorted;
    Alcotest.test_case "snapshot renders valid JSON" `Quick test_snapshot_json;
  ]
