(* Bechamel microbenchmarks: one [Test.make] per paper artefact, each
   measuring the dominant protocol primitive of that experiment. These
   complement the simulation harness (which regenerates the tables and
   figures themselves) with CPU-level costs of the implementation. *)

open Bechamel
open Toolkit

module U = Unistore
module Vc = Vclock.Vc

(* Figure 3's inner loop: snapshot reads against a populated op-log. *)
let test_fig3_snapshot_read =
  let log = Store.Oplog.create () in
  let snap = Vc.of_array [| 500; 500; 500; 500 |] in
  for i = 1 to 1000 do
    let vec = Vc.of_array [| i; 0; 0; 0 |] in
    Store.Oplog.append log (i mod 50)
      { Store.Oplog.op = Crdt.Reg_write i; vec; tag = { Crdt.lc = i; origin = 0 } }
  done;
  Test.make ~name:"fig3: op-log snapshot read"
    (Staged.stage (fun () -> ignore (Store.Oplog.read log 7 ~snap)))

(* The latency table's dominant metadata operation: vector joins. *)
let test_tab_vector_ops =
  let a = Vc.of_array [| 5; 9; 2; 7 |] and b = Vc.of_array [| 3; 11; 2; 6 |] in
  Test.make ~name:"tab-latency: vector clock join+leq"
    (Staged.stage (fun () ->
         let j = Vc.join a b in
         ignore (Vc.leq a j)))

(* Figure 4's certification hot path: the Algorithm A8 check. *)
let test_fig4_certification =
  let ops_of i =
    [ (0, [ { U.Types.key = i; cls = 0; write = true } ]) ]
  in
  Test.make ~name:"fig4: certification conflict check"
    (Staged.stage
       (let ctr = ref 0 in
        fun () ->
          incr ctr;
          ignore
            (U.Config.txs_conflict U.Config.Serializable
               (List.concat_map snd (ops_of (!ctr mod 100)))
               (List.concat_map snd (ops_of ((!ctr + 1) mod 100))))))

(* Figure 5's extra work: recomputing uniformVec from a stable matrix. *)
let test_fig5_uniform_recompute =
  let dcs = 5 and f = 2 in
  let matrix = Array.init dcs (fun i -> Vc.of_array [| i; i + 1; i + 2; i; i; 0 |]) in
  Test.make ~name:"fig5: uniformVec recomputation"
    (Staged.stage (fun () ->
         (* min over the f largest sibling entries, per origin *)
         for j = 0 to dcs - 1 do
           let others = ref [] in
           for h = 1 to dcs - 1 do
             others := Vc.get matrix.(h) j :: !others
           done;
           let sorted = List.sort (fun a b -> compare b a) !others in
           ignore (min (Vc.get matrix.(0) j) (List.nth sorted (f - 1)))
         done))

(* Figure 6's bookkeeping: Zipf sampling driving the update stream. *)
let test_fig6_workload_gen =
  let rng = Sim.Rng.create 7 in
  let zipf = Sim.Zipf.create ~n:100_000 ~theta:0.0 in
  Test.make ~name:"fig6: workload key sampling"
    (Staged.stage (fun () -> ignore (Sim.Zipf.sample zipf rng)))

(* End-to-end: one simulated event dispatch. *)
let test_engine_dispatch =
  Test.make ~name:"substrate: engine schedule+dispatch"
    (Staged.stage
       (let eng = Sim.Engine.create () in
        fun () ->
          Sim.Engine.schedule eng ~delay:1 (fun () -> ());
          Sim.Engine.run eng))

let benchmarks =
  [
    test_fig3_snapshot_read;
    test_tab_vector_ops;
    test_fig4_certification;
    test_fig5_uniform_recompute;
    test_fig6_workload_gen;
    test_engine_dispatch;
  ]

let run () =
  Common.section "Bechamel microbenchmarks (protocol primitives)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              estimates := (name, est) :: !estimates;
              Fmt.pr "  %-40s %10.1f ns/run@." name est
          | _ -> Fmt.pr "  %-40s (no estimate)@." name)
        analysis)
    benchmarks;
  (* note: ns/run values are wall-clock measurements, not deterministic *)
  Common.emit_artifact ~name:"micro"
    (Sim.Json.Obj
       [
         ( "ns_per_run",
           Sim.Json.Obj
             (List.map
                (fun (name, est) -> (name, Sim.Json.Float est))
                (List.sort compare !estimates)) );
       ])
