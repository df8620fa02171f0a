(* Deterministic PRNG: reproducibility, stream independence, samplers. *)

let test_determinism () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 1000 do
    Alcotest.(check int64)
      "same seed, same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

let test_different_seeds () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Sim.Rng.next_int64 a = Sim.Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_split_independent () =
  let parent = Sim.Rng.create 7 in
  let a = Sim.Rng.split parent ~id:1 in
  let b = Sim.Rng.split parent ~id:2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Sim.Rng.next_int64 a = Sim.Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

let test_int_bounds () =
  let rng = Sim.Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_int_covers_range () =
  let rng = Sim.Rng.create 13 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Sim.Rng.int rng 8) <- true
  done;
  Array.iteri
    (fun i hit -> Alcotest.(check bool) (Fmt.str "value %d seen" i) true hit)
    seen

let test_float_bounds () =
  let rng = Sim.Rng.create 17 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 3.5)
  done

let test_float_mean () =
  let rng = Sim.Rng.create 19 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "mean %.4f close to 0.5" mean)
    true
    (abs_float (mean -. 0.5) < 0.01)

let test_exponential_mean () =
  let rng = Sim.Rng.create 23 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "mean %.2f close to 50" mean)
    true
    (abs_float (mean -. 50.0) < 2.0)

let test_weighted () =
  let rng = Sim.Rng.create 29 in
  let weights = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Sim.Rng.weighted rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight index never drawn" 0 counts.(1);
  let frac0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "weight-1 fraction %.3f near 0.25" frac0)
    true
    (abs_float (frac0 -. 0.25) < 0.02)

let test_shuffle_permutation () =
  let rng = Sim.Rng.create 31 in
  let arr = Array.init 100 Fun.id in
  Sim.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 100 Fun.id);
  Alcotest.(check bool) "actually shuffled" true (arr <> Array.init 100 Fun.id)

let test_invalid_args () =
  let rng = Sim.Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int rng 0));
  Alcotest.check_raises "weighted zero"
    (Invalid_argument "Rng.weighted: weights sum to zero") (fun () ->
      ignore (Sim.Rng.weighted rng [| 0.0; 0.0 |]))

(* The splitmix64 stream is pinned: any change to the state's
   representation must reproduce these draws bit for bit, or every
   seeded run changes. Each sampler starts from a fresh [create 7] and a
   fresh [split ~id:1] of one. *)
let test_golden_values () =
  let check_first8 name pp eq draw expect_root expect_split =
    let draws rng = List.init 8 (fun _ -> draw rng) in
    let t = Alcotest.testable pp eq in
    Alcotest.(check (list t))
      (name ^ ", create 7")
      expect_root
      (draws (Sim.Rng.create 7));
    Alcotest.(check (list t))
      (name ^ ", split ~id:1")
      expect_split
      (draws (Sim.Rng.split (Sim.Rng.create 7) ~id:1))
  in
  check_first8 "next_int64" Fmt.int64 Int64.equal Sim.Rng.next_int64
    [
      7191089600892374487L; 309689372594955804L; -1830642326893942270L;
      -7693578145408079413L; 8346079845500723674L; 4601199455465548305L;
      8632209307422871798L; 6051947643683389182L;
    ]
    [
      4414074177334070910L; -2662485914863365756L; 4022880824399552730L;
      3263372390124408666L; 2806995435644654123L; 2384611231382165281L;
      -2705064057759529655L; 6814810236126944853L;
    ];
  check_first8 "int 1000" Fmt.int Int.equal
    (fun r -> Sim.Rng.int r 1000)
    [ 243; 902; 673; 101; 837; 152; 899; 591 ]
    [ 455; 930; 365; 333; 61; 640; 980; 426 ];
  check_first8 "float 1.0" (Fmt.fmt "%h") Float.equal
    (fun r -> Sim.Rng.float r 1.0)
    [
      0x1.8f2f879164c82p-2; 0x1.130f35fd0f18p-6; 0x1.cd30810175625p-1;
      0x1.2a75d6e0ce7c5p-1; 0x1.cf4ced99a8788p-2; 0x1.fed5f4365df54p-3;
      0x1.df2f1284cf0b4p-2; 0x1.4ff35944f40aep-2;
    ]
    [
      0x1.ea0f889ec1c64p-3; 0x1.b619e655722d2p-1; 0x1.bea1265d8087p-3;
      0x1.6a4e9f3099764p-3; 0x1.37a39bd01df08p-3; 0x1.08beba3eef868p-3;
      0x1.b4eb5d249d22p-1; 0x1.7a4c4736a02b6p-2;
    ];
  check_first8 "bool" Fmt.bool Bool.equal Sim.Rng.bool
    [ true; false; false; true; false; true; false; false ]
    [ false; false; false; false; true; true; true; true ]

(* Drawing allocates nothing: the 64-bit state and the intermediates of
   a draw stay unboxed, so [int] and [bool] cost no words. A [float]
   returned across a module boundary is boxed by the call convention
   (libraries are compiled [-opaque] in the dev profile, so nothing
   inlines across modules): exactly its 2-word result box per draw. *)
let test_draws_no_alloc () =
  let n = 10_000 in
  let rng = Sim.Rng.create 37 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc + Sim.Rng.int rng 1000;
    if Sim.Rng.bool rng then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "drew something" true (!acc > 0);
  Alcotest.(check (float 0.)) "int and bool: no words allocated" 0. words;
  let below = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Sim.Rng.float rng 1.0 < 0.5 then incr below
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "drew something" true (!below > 0);
  Alcotest.(check (float 0.))
    "float: only the result box (2 words per draw)"
    (float_of_int (2 * n))
    words

let suite =
  [
    Alcotest.test_case "same seed reproduces stream" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds;
    Alcotest.test_case "split streams are independent" `Quick
      test_split_independent;
    Alcotest.test_case "int stays in bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers its range" `Quick test_int_covers_range;
    Alcotest.test_case "float stays in bounds" `Quick test_float_bounds;
    Alcotest.test_case "float is uniform (mean)" `Quick test_float_mean;
    Alcotest.test_case "exponential has requested mean" `Quick
      test_exponential_mean;
    Alcotest.test_case "weighted respects weights" `Quick test_weighted;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
    Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_args;
    Alcotest.test_case "first draws match the golden stream" `Quick
      test_golden_values;
    Alcotest.test_case "draws allocate nothing but a float result box" `Quick
      test_draws_no_alloc;
  ]
