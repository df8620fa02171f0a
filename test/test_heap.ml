(* Binary heap: ordering, tie-breaking, growth and shrinking, and
   allocation-free [top]/[pop]. *)

let check = Alcotest.(check int)

(* The simulator's key: (time, seq), seq breaking ties. *)
type e = { time : int; seq : int; v : int }

let key_less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)
let keyed () = Sim.Heap.create ~less:key_less
let push h ~time ~seq v = Sim.Heap.push h { time; seq; v }

let drain h =
  let rec go acc =
    if Sim.Heap.is_empty h then List.rev acc else go (Sim.Heap.pop h :: acc)
  in
  go []

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_empty () =
  let h = keyed () in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check bool) "pop raises" true (raises (fun () -> Sim.Heap.pop h));
  Alcotest.(check bool) "top raises" true (raises (fun () -> Sim.Heap.top h))

let test_ordering () =
  let h = keyed () in
  List.iteri (fun i t -> push h ~time:t ~seq:i i) [ 5; 3; 9; 1; 7; 3; 0 ];
  Alcotest.(check (list int))
    "sorted" [ 0; 1; 3; 3; 5; 7; 9 ]
    (List.map (fun e -> e.time) (drain h))

let test_fifo_ties () =
  let h = keyed () in
  for i = 0 to 9 do
    push h ~time:42 ~seq:i i
  done;
  List.iteri (fun i e -> check (Fmt.str "tie %d" i) i e.v) (drain h)

let test_growth () =
  let h = keyed () in
  let n = 10_000 in
  for i = n downto 1 do
    push h ~time:i ~seq:i i
  done;
  check "size" n (Sim.Heap.size h);
  let times = List.map (fun e -> e.time) (drain h) in
  Alcotest.(check (list int)) "monotone" (List.init n (fun i -> i + 1)) times;
  check "drained" 0 (Sim.Heap.size h)

let test_clear () =
  let h = keyed () in
  for i = 1 to 100 do
    push h ~time:i ~seq:i i
  done;
  Sim.Heap.clear h;
  check "cleared" 0 (Sim.Heap.size h);
  Alcotest.(check bool) "pop after clear raises" true
    (raises (fun () -> Sim.Heap.pop h));
  push h ~time:7 ~seq:0 7;
  check "usable after clear" 7 (Sim.Heap.pop h).v

let test_interleaved () =
  let h = keyed () in
  push h ~time:10 ~seq:0 10;
  push h ~time:5 ~seq:1 5;
  check "first" 5 (Sim.Heap.pop h).v;
  push h ~time:1 ~seq:2 1;
  check "top" 1 (Sim.Heap.top h).v;
  check "second" 1 (Sim.Heap.pop h).v;
  check "third" 10 (Sim.Heap.pop h).v

(* The ordering is the caller's: here a max-heap on strings by length,
   longest first, ties alphabetical. *)
let test_caller_ordering () =
  let h =
    Sim.Heap.create ~less:(fun a b ->
        String.length a > String.length b
        || (String.length a = String.length b && a < b))
  in
  List.iter (Sim.Heap.push h) [ "bb"; "a"; "dddd"; "ccc"; "ab"; "e" ];
  Alcotest.(check (list string))
    "longest first" [ "dddd"; "ccc"; "ab"; "bb"; "a"; "e" ] (drain h)

(* A burst grows the array; draining it to a quarter halves it, and
   further pushes and pops keep the order through every resize. *)
let test_shrink_keeps_order () =
  let h = keyed () in
  let rng = Random.State.make [| 7 |] in
  let model = ref [] and seq = ref 0 in
  let add () =
    incr seq;
    let time = Random.State.int rng 1_000 in
    push h ~time ~seq:!seq 0;
    model := (time, !seq) :: !model
  in
  let take () =
    let e = Sim.Heap.pop h in
    let expect = List.fold_left min (List.hd !model) !model in
    Alcotest.(check (pair int int)) "pop is the model's minimum" expect
      (e.time, e.seq);
    model := List.filter (fun k -> k <> expect) !model
  in
  for _ = 1 to 3 do
    for _ = 1 to 2_000 do
      add ()
    done;
    (* pop two, push one, down to a handful *)
    while Sim.Heap.size h > 5 do
      take ();
      take ();
      add ()
    done
  done;
  while not (Sim.Heap.is_empty h) do
    take ()
  done;
  check "model drained" 0 (List.length !model)

(* [top] and [pop] allocate nothing (a pop that halves the array does;
   64 elements popped down to 24 stay above a quarter of 64). *)
let test_top_pop_no_alloc () =
  let h = keyed () in
  for i = 64 downto 1 do
    push h ~time:i ~seq:i i
  done;
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 40 do
    sum := !sum + (Sim.Heap.top h).v;
    sum := !sum + (Sim.Heap.pop h).v
  done;
  let words = Gc.minor_words () -. w0 in
  check "popped the 40 smallest" (2 * 40 * 41 / 2) !sum;
  Alcotest.(check (float 0.)) "no words allocated" 0. words

let qcheck_heapsort =
  QCheck.Test.make ~name:"heap pops form a sorted permutation" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = keyed () in
      List.iteri (fun i t -> push h ~time:t ~seq:i t) times;
      List.map (fun e -> e.time) (drain h) = List.sort compare times)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pops in time order" `Quick test_ordering;
    Alcotest.test_case "ties break by sequence" `Quick test_fifo_ties;
    Alcotest.test_case "grows past initial capacity" `Quick test_growth;
    Alcotest.test_case "clear empties the heap" `Quick test_clear;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "orders by the caller's relation" `Quick
      test_caller_ordering;
    Alcotest.test_case "shrinking after a burst keeps the order" `Quick
      test_shrink_keeps_order;
    Alcotest.test_case "top and pop allocate nothing" `Quick
      test_top_pop_no_alloc;
    QCheck_alcotest.to_alcotest qcheck_heapsort;
  ]
