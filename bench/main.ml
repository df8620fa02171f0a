(* Benchmark harness entry point.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (§8) and runs the Bechamel microbenchmarks;
   individual artefacts can be selected by name:

     main.exe [--json <dir>] [fig3|tab-latency|fig4a|fig4b|fig5|fig6|scenarios|nemesis|micro]...

   `--json <dir>` additionally writes one machine-readable
   BENCH_<name>.json per artefact (plus TRACE_<name>.json Chrome-trace
   exports where a run records a trace) into <dir>. The profile
   artefact writes BENCH_profile.json even without it, into bench-out. *)

let artefacts =
  [
    ("fig3", fun () -> Common.timed "fig3" Fig3.run);
    ("tab-latency", fun () -> Common.timed "tab-latency" Tab_latency.run);
    ( "fig4a",
      fun () ->
        Common.timed "fig4a" (fun () ->
            ignore
              (Fig4.run_variant ~artifact:"fig4a" ~contended:false
                 "Figure 4 (top) — scalability, uniform access (peak tx/s)"))
    );
    ( "fig4b",
      fun () ->
        Common.timed "fig4b" (fun () ->
            ignore
              (Fig4.run_variant ~artifact:"fig4b" ~contended:true
                 "Figure 4 (bottom) — scalability under contention")) );
    ("fig4", fun () -> Common.timed "fig4" Fig4.run);
    ("fig5", fun () -> Common.timed "fig5" Fig5.run);
    ("fig6", fun () -> Common.timed "fig6" Fig6.run);
    ("scenarios", fun () -> Common.timed "scenarios" Scenarios.run);
    ("nemesis", fun () -> Common.timed "nemesis" Nemesis_bench.run);
    ("recovery", fun () -> Common.timed "recovery" Nemesis_bench.run_recovery);
    ( "adversity",
      fun () -> Common.timed "adversity" Nemesis_bench.run_adversity );
    ("ablations", fun () -> Common.timed "ablations" Ablations.run);
    ("overload", fun () -> Common.timed "overload" Overload.run);
    ("rolling", fun () -> Common.timed "rolling" Rolling.run);
    ("profile", fun () -> Profile.run ());
    ("micro", fun () -> Common.timed "micro" Microbench.run);
  ]

let default_sequence =
  [ "scenarios"; "nemesis"; "recovery"; "adversity"; "overload"; "rolling";
    "profile"; "tab-latency"; "fig6"; "fig5"; "ablations"; "micro"; "fig3";
    "fig4" ]

(* Strip [--json <dir>] (setting [Common.json_dir]) and return the
   remaining artefact names. *)
let rec parse_args = function
  | [] -> []
  | "--json" :: dir :: rest ->
      Common.json_dir := Some dir;
      parse_args rest
  | [ "--json" ] ->
      Fmt.epr "--json requires a directory argument@.";
      exit 1
  | arg :: rest -> arg :: parse_args rest

let () =
  let requested =
    match parse_args (List.tl (Array.to_list Sys.argv)) with
    | [] -> default_sequence
    | args -> args
  in
  Fmt.pr
    "UniStore evaluation harness (simulated EC2 deployment; see \
     EXPERIMENTS.md for scale notes)@.";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name artefacts with
      | Some run -> run ()
      | None ->
          Fmt.epr "unknown artefact %S; available: %s@." name
            (String.concat ", " (List.map fst artefacts));
          exit 1)
    requested;
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
