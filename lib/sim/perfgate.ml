(* The CI perf-regression gate: compare a profiled bench artifact
   (BENCH_profile.json) against a checked-in baseline
   (bench/PERF_BASELINE.json).

   Two classes of checks:

   - hard failures, deterministic under the fixed seed and therefore
     safe to gate CI on: per-label allocation budgets (words/event must
     not exceed the budget by more than [tolerance_pct]), a budgeted
     label going missing from the artifact (the instrumentation or the
     workload silently broke), and attribution coverage dropping below
     [min_coverage_pct];
   - advisory warnings, noisy on shared CI hardware: wall-clock
     [sim_events_per_sec] below [events_per_sec_floor], and artifact
     labels that have no budget yet (new instrumentation — update the
     baseline).

   Baseline document shape:

     { "tolerance_pct": 10.0,
       "min_coverage_pct": 95.0,
       "min_events": 500,                     // budget/warn floor
       "events_per_sec_floor": 100000.0,      // optional, advisory
       "budgets": [ { "label": "...", "words_per_event": 123.4 }, ... ] }

   Only labels carrying at least [min_events] events are budgeted or
   warned about: a label with a handful of events swings its words/event
   wildly on unrelated changes to shared helpers, which would make the
   hard gate brittle exactly where it carries no signal.

   The artifact is either a whole bench document carrying a "profile"
   member or a bare profile object ({!Prof.entries_to_json} shape). *)

type result = { failures : string list; warnings : string list }

let ok r = r.failures = []

let num j = Json.to_float_opt j

let field name j = Option.bind (Json.member name j) num

(* The profile object inside [artifact] (or [artifact] itself). *)
let profile_of artifact =
  match Json.member "profile" artifact with
  | Some p -> Some p
  | None ->
      if Json.member "labels" artifact <> None then Some artifact else None

(* label -> (words_per_event, events) from a profile object. *)
let artifact_labels profile =
  match Option.bind (Json.member "labels" profile) Json.to_list_opt with
  | None -> []
  | Some rows ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Json.member "label" row) Json.to_string_opt,
              field "words_per_event" row )
          with
          | Some l, Some w ->
              let events =
                match
                  Option.bind (Json.member "events" row) Json.to_int_opt
                with
                | Some e -> e
                | None -> 0
              in
              Some (l, (w, events))
          | _ -> None)
        rows

let budgets_of baseline =
  match Option.bind (Json.member "budgets" baseline) Json.to_list_opt with
  | None -> []
  | Some rows ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Json.member "label" row) Json.to_string_opt,
              field "words_per_event" row )
          with
          | Some l, Some w -> Some (l, w)
          | _ -> None)
        rows

let check ~baseline ~artifact =
  let failures = ref [] and warnings = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let warn fmt = Fmt.kstr (fun s -> warnings := s :: !warnings) fmt in
  let tolerance =
    match field "tolerance_pct" baseline with Some t -> t | None -> 10.0
  in
  let min_events =
    match Option.bind (Json.member "min_events" baseline) Json.to_int_opt with
    | Some n -> n
    | None -> 500
  in
  (match profile_of artifact with
  | None -> fail "artifact has no profile section"
  | Some profile ->
      let labels = artifact_labels profile in
      let budgets = budgets_of baseline in
      if budgets = [] then warn "baseline declares no budgets";
      (* hard gate: per-label words/event against its budget *)
      List.iter
        (fun (label, budget) ->
          match List.assoc_opt label labels with
          | None ->
              fail
                "label %S has a budget (%.1f w/ev) but is missing from the \
                 artifact"
                label budget
          | Some (wpe, _) ->
              let limit = budget *. (1.0 +. (tolerance /. 100.0)) in
              if wpe > limit then
                fail
                  "label %S allocates %.1f words/event, over its budget %.1f \
                   by %.1f%% (> %.0f%% tolerance)"
                  label wpe budget
                  (100.0 *. ((wpe /. budget) -. 1.0))
                  tolerance)
        budgets;
      (* advisory: busy labels without a budget (new instrumentation) *)
      List.iter
        (fun (label, (wpe, events)) ->
          if events >= min_events && not (List.mem_assoc label budgets) then
            warn "label %S (%d events, %.1f words/event) has no budget; \
                  update the baseline" label events wpe)
        labels;
      (* hard gate: attribution coverage *)
      (match (field "min_coverage_pct" baseline, field "coverage_pct" profile)
       with
      | Some floor, Some cov ->
          if cov < floor then
            fail "attribution coverage %.1f%% below the %.1f%% floor" cov
              floor
      | Some _, None -> fail "artifact reports no coverage_pct"
      | None, _ -> ()));
  (* advisory: wall-clock throughput (noisy in CI) *)
  (match (field "events_per_sec_floor" baseline,
          field "sim_events_per_sec" artifact)
   with
  | Some floor, Some rate ->
      if rate < floor then
        warn "sim_events_per_sec %.0f below the advisory floor %.0f \
              (wall-clock; not gated)" rate floor
  | Some _, None ->
      warn "artifact carries no sim_events_per_sec (advisory check skipped)"
  | None, _ -> ());
  { failures = List.rev !failures; warnings = List.rev !warnings }

(* Derive a baseline from a measured artifact: budgets are the measured
   words/event inflated by [headroom_pct] (absorbing compiler/runtime
   drift below the gate's own tolerance), the advisory events/sec floor
   is [previous]'s if it has one, else half the measured rate: one run's
   wall-clock rate is too noisy to re-pin it by. [bin/perfcheck.exe
   --init] writes this. *)
let baseline_of_artifact ?(headroom_pct = 5.0) ?(tolerance_pct = 10.0)
    ?(min_coverage_pct = 95.0) ?(min_events = 500) ?previous artifact =
  let budgets =
    match profile_of artifact with
    | None -> []
    | Some profile ->
        List.filter_map
          (fun (label, (wpe, events)) ->
            if events < min_events then None
            else
              Some
                (Json.Obj
                   [
                     ("label", Json.String label);
                     ( "words_per_event",
                       Json.Float
                         (Float.round
                            (wpe *. (1.0 +. (headroom_pct /. 100.0)) *. 10.0)
                         /. 10.0) );
                   ]))
          (artifact_labels profile)
  in
  let floor =
    match
      ( Option.bind previous (field "events_per_sec_floor"),
        field "sim_events_per_sec" artifact )
    with
    | Some floor, _ -> [ ("events_per_sec_floor", Json.Float floor) ]
    | None, Some rate -> [ ("events_per_sec_floor", Json.Float (rate /. 2.0)) ]
    | None, None -> []
  in
  Json.Obj
    ([
       ("tolerance_pct", Json.Float tolerance_pct);
       ("min_coverage_pct", Json.Float min_coverage_pct);
       ("min_events", Json.Int min_events);
     ]
    @ floor
    @ [ ("budgets", Json.List budgets) ])

let pp_result ppf r =
  List.iter (fun w -> Fmt.pf ppf "warning: %s@." w) r.warnings;
  List.iter (fun f -> Fmt.pf ppf "FAIL: %s@." f) r.failures;
  if ok r then
    Fmt.pf ppf "perfcheck: OK (%d warning%s)@." (List.length r.warnings)
      (if List.length r.warnings = 1 then "" else "s")
  else Fmt.pf ppf "perfcheck: %d failure(s)@." (List.length r.failures)
