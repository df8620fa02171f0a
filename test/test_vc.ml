(* Vector timestamps: orders, lattice operations, strong entry. *)

module Vc = Vclock.Vc

let v3 a b c s =
  let v = Vc.create ~dcs:3 in
  Vc.set v 0 a;
  Vc.set v 1 b;
  Vc.set v 2 c;
  Vc.set_strong v s;
  v

let test_create () =
  let v = Vc.create ~dcs:3 in
  Alcotest.(check int) "dcs" 3 (Vc.dcs v);
  for i = 0 to 2 do
    Alcotest.(check int) "zero" 0 (Vc.get v i)
  done;
  Alcotest.(check int) "strong zero" 0 (Vc.strong v)

let test_leq () =
  Alcotest.(check bool) "refl" true (Vc.leq (v3 1 2 3 4) (v3 1 2 3 4));
  Alcotest.(check bool) "dominated" true (Vc.leq (v3 1 2 3 0) (v3 2 2 4 1));
  Alcotest.(check bool) "not dominated" false (Vc.leq (v3 1 2 3 0) (v3 2 1 4 1));
  Alcotest.(check bool) "strong counts" false
    (Vc.leq (v3 1 2 3 5) (v3 1 2 3 4))

let test_lt () =
  Alcotest.(check bool) "strict" true (Vc.lt (v3 1 2 3 0) (v3 1 2 4 0));
  Alcotest.(check bool) "not strict on equal" false
    (Vc.lt (v3 1 2 3 0) (v3 1 2 3 0));
  Alcotest.(check bool) "incomparable" false (Vc.lt (v3 1 0 0 0) (v3 0 1 0 0))

let test_leq_dcs_ignores_strong () =
  Alcotest.(check bool) "ignores strong" true
    (Vc.leq_dcs (v3 1 2 3 99) (v3 1 2 3 0))

let test_join_meet () =
  let a = v3 1 5 2 7 and b = v3 3 1 2 4 in
  Alcotest.(check bool) "join" true (Vc.equal (Vc.join a b) (v3 3 5 2 7));
  Alcotest.(check bool) "meet" true (Vc.equal (Vc.meet a b) (v3 1 1 2 4))

let test_merge_into () =
  let a = v3 1 5 2 7 in
  Vc.merge_into a (v3 3 1 2 4);
  Alcotest.(check bool) "in-place join" true (Vc.equal a (v3 3 5 2 7));
  let b = v3 1 5 2 7 in
  Vc.meet_into b (v3 3 1 2 4);
  Alcotest.(check bool) "in-place meet" true (Vc.equal b (v3 1 1 2 4))

let test_bump () =
  let a = v3 1 1 1 1 in
  Vc.bump a 0 5;
  Vc.bump a 1 0;
  Vc.bump_strong a 9;
  Alcotest.(check bool) "bumps" true (Vc.equal a (v3 5 1 1 9))

let test_copy_isolated () =
  let a = v3 1 2 3 4 in
  let b = Vc.copy a in
  Vc.set b 0 99;
  Alcotest.(check int) "original untouched" 1 (Vc.get a 0)

let test_incompatible () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vc: incompatible vector lengths") (fun () ->
      ignore (Vc.leq (Vc.create ~dcs:2) (Vc.create ~dcs:3)))

(* --- lattice laws, property-based ---------------------------------- *)

let gen_vc =
  QCheck.Gen.(
    map
      (fun xs ->
        let v = Vc.create ~dcs:3 in
        List.iteri (fun i x -> Vc.set v i x) xs;
        v)
      (list_size (return 4) (int_bound 100)))

let arb_vc = QCheck.make ~print:Vc.to_string gen_vc

let qcheck_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:300 (QCheck.pair arb_vc arb_vc)
    (fun (a, b) -> Vc.equal (Vc.join a b) (Vc.join b a))

let qcheck_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:300
    (QCheck.triple arb_vc arb_vc arb_vc) (fun (a, b, c) ->
      Vc.equal (Vc.join a (Vc.join b c)) (Vc.join (Vc.join a b) c))

let qcheck_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:300 arb_vc (fun a ->
      Vc.equal (Vc.join a a) a)

let qcheck_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      let j = Vc.join a b in
      Vc.leq a j && Vc.leq b j)

let qcheck_meet_lower_bound =
  QCheck.Test.make ~name:"meet is a lower bound" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      let m = Vc.meet a b in
      Vc.leq m a && Vc.leq m b)

let qcheck_absorption =
  QCheck.Test.make ~name:"absorption law" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      Vc.equal (Vc.join a (Vc.meet a b)) a
      && Vc.equal (Vc.meet a (Vc.join a b)) a)

let qcheck_leq_partial_order =
  QCheck.Test.make ~name:"leq transitive and antisymmetric" ~count:300
    (QCheck.triple arb_vc arb_vc arb_vc) (fun (a, b, c) ->
      let trans =
        (not (Vc.leq a b && Vc.leq b c)) || Vc.leq a c
      in
      let antisym = (not (Vc.leq a b && Vc.leq b a)) || Vc.equal a b in
      trans && antisym)

(* [nth_largest] against the reference it replaces in the uniformVec
   recompute: collect the other rows' entries, sort descending, take
   the (n-1)-th. Entries are drawn from 0..3 so rows tie often. *)
let gen_nth_case =
  QCheck.Gen.(
    int_range 2 7 >>= fun d ->
    int_range 1 (d - 1) >>= fun n ->
    int_bound (d - 1) >>= fun skip ->
    int_bound (d - 1) >>= fun entry ->
    array_repeat d (array_repeat (d + 1) (int_bound 3)) >>= fun rows ->
    return (rows, skip, entry, n))

let print_nth_case (rows, skip, entry, n) =
  Printf.sprintf "rows=[%s] skip=%d entry=%d n=%d"
    (String.concat "; " (Array.to_list (Array.map Vc.to_string rows)))
    skip entry n

let qcheck_nth_largest =
  QCheck.Test.make ~name:"nth_largest equals sort-then-nth" ~count:1000
    (QCheck.make ~print:print_nth_case gen_nth_case)
    (fun (rows, skip, entry, n) ->
      let others = ref [] in
      Array.iteri
        (fun h row -> if h <> skip then others := Vc.get row entry :: !others)
        rows;
      let sorted = List.sort (fun a b -> compare b a) !others in
      let reference = List.nth sorted (n - 1) in
      Vc.nth_largest rows ~skip entry n = reference)

let suite =
  [
    Alcotest.test_case "create zero vector" `Quick test_create;
    Alcotest.test_case "pointwise leq" `Quick test_leq;
    Alcotest.test_case "strict order" `Quick test_lt;
    Alcotest.test_case "leq_dcs ignores strong entry" `Quick
      test_leq_dcs_ignores_strong;
    Alcotest.test_case "join and meet" `Quick test_join_meet;
    Alcotest.test_case "merge_into joins in place" `Quick test_merge_into;
    Alcotest.test_case "bump takes maxima" `Quick test_bump;
    Alcotest.test_case "copy is isolated" `Quick test_copy_isolated;
    Alcotest.test_case "incompatible lengths rejected" `Quick
      test_incompatible;
    QCheck_alcotest.to_alcotest qcheck_join_commutative;
    QCheck_alcotest.to_alcotest qcheck_join_associative;
    QCheck_alcotest.to_alcotest qcheck_join_idempotent;
    QCheck_alcotest.to_alcotest qcheck_join_upper_bound;
    QCheck_alcotest.to_alcotest qcheck_meet_lower_bound;
    QCheck_alcotest.to_alcotest qcheck_absorption;
    QCheck_alcotest.to_alcotest qcheck_leq_partial_order;
    QCheck_alcotest.to_alcotest qcheck_nth_largest;
  ]
