(* CI perf-regression gate over profiled bench artifacts.

     perfcheck BASELINE ARTIFACT          gate ARTIFACT against BASELINE
     perfcheck --init BASELINE ARTIFACT   regenerate BASELINE from ARTIFACT

   ARTIFACT is a BENCH_profile.json (or any bench document with a
   "profile" section). Gate semantics live in [Sim.Perfgate]: per-label
   words/event budgets, budgeted-label presence and attribution
   coverage fail hard (exit 1); wall-clock throughput and unbudgeted
   new labels only warn. [--init] writes a fresh baseline derived from
   the artifact's measured values with headroom, keeping an existing
   BASELINE's advisory events/sec floor — run it after a deliberate
   change to the hot path, and commit the result. *)

let read_json path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Sim.Json.of_string_opt s with
  | Some j -> j
  | None ->
      Fmt.epr "perfcheck: %s is not valid JSON@." path;
      exit 2

let usage () =
  Fmt.epr "usage: perfcheck [--init] BASELINE ARTIFACT@.";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--init"; baseline_path; artifact_path ] ->
      let artifact = read_json artifact_path in
      let previous =
        if Sys.file_exists baseline_path then Some (read_json baseline_path)
        else None
      in
      let baseline = Sim.Perfgate.baseline_of_artifact ?previous artifact in
      let oc = open_out baseline_path in
      output_string oc (Sim.Json.to_string_pretty baseline);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "perfcheck: wrote %s from %s@." baseline_path artifact_path
  | [ _; baseline_path; artifact_path ] ->
      let baseline = read_json baseline_path in
      let artifact = read_json artifact_path in
      let result = Sim.Perfgate.check ~baseline ~artifact in
      Fmt.pr "%a" Sim.Perfgate.pp_result result;
      if not (Sim.Perfgate.ok result) then exit 1
  | _ -> usage ()
