(* Schedule shrinking: atomized ddmin + singleton sweep, then window
   shortening and time snapping. See shrink.mli for the contract. *)

module N = Unistore.Nemesis

let sort_sched (s : N.schedule) =
  List.stable_sort (fun (a : N.step) (b : N.step) -> compare a.at_us b.at_us) s

(* Does [cl] close the fault opened by [op]? *)
let closes (op : N.event) (cl : N.event) =
  match (op, cl) with
  | N.Crash_dc a, N.Recover_dc b -> a = b
  | N.Partition (a, b), N.Heal (c, d) -> (a, b) = (c, d) || (a, b) = (d, c)
  | N.Degrade { src; dst; _ }, N.Restore { src = s; dst = d } ->
      src = s && dst = d
  | N.Crash_node { dc; part }, N.Restart_node { dc = d; part = p } ->
      dc = d && part = p
  | N.Slow_disk { dc; part; _ }, N.Restore_disk { dc = d; part = p } ->
      dc = d && part = p
  | _ -> false

(* Split into fixed steps (Heal_all, always kept) and removable atoms:
   each fault step paired with the first later step that closes it,
   everything else a singleton. *)
let atomize (sched : N.schedule) =
  let fixed, rest =
    List.partition (fun (s : N.step) -> s.ev = N.Heal_all) sched
  in
  let rec take_closer op acc = function
    | [] -> None
    | (s : N.step) :: tl ->
        if closes op s.ev then Some (s, List.rev_append acc tl)
        else take_closer op (s :: acc) tl
  in
  let rec build acc = function
    | [] -> List.rev acc
    | (s : N.step) :: tl -> (
        match take_closer s.ev [] tl with
        | Some (closer, tl') -> build ([ s; closer ] :: acc) tl'
        | None -> build ([ s ] :: acc) tl)
  in
  (fixed, build [] rest)

let rebuild fixed atoms = sort_sched (fixed @ List.concat atoms)

(* Zeller-style ddmin over the atom list. *)
let ddmin ~fails_atoms atoms =
  let split n xs =
    let len = List.length xs in
    let base = len / n and extra = len mod n in
    let rec go i xs acc =
      if i = n then List.rev acc
      else
        let k = base + if i < extra then 1 else 0 in
        let rec take k xs acc =
          if k = 0 then (List.rev acc, xs)
          else
            match xs with
            | [] -> (List.rev acc, [])
            | x :: tl -> take (k - 1) tl (x :: acc)
        in
        let chunk, rest = take k xs [] in
        go (i + 1) rest (chunk :: acc)
    in
    go 0 xs []
  in
  let rec loop atoms n =
    if List.length atoms <= 1 then atoms
    else
      let chunks = split n atoms in
      let complement i =
        List.concat
          (List.filteri (fun j _ -> j <> i) chunks |> List.map Fun.id)
      in
      let rec try_at i =
        if i >= List.length chunks then None
        else
          let cand = complement i in
          if cand <> [] && fails_atoms cand then Some cand else try_at (i + 1)
      in
      match try_at 0 with
      | Some reduced -> loop reduced (max 2 (n - 1))
      | None ->
          if n >= List.length atoms then atoms
          else loop atoms (min (List.length atoms) (2 * n))
  in
  loop atoms 2

(* Try dropping each single atom; restart from scratch on success. At
   the fixpoint, no single removal still fails: 1-minimality. *)
let rec sweep ~fails_atoms atoms =
  let rec go pre = function
    | [] -> None
    | a :: post ->
        let cand = List.rev_append pre post in
        if fails_atoms cand then Some cand else go (a :: pre) post
  in
  match go [] atoms with
  | Some reduced -> sweep ~fails_atoms reduced
  | None -> atoms

(* Halve each pair's fault window toward its opening time while the
   failure survives (at most 8 halvings, floor 1 ms). *)
let shorten_windows ~fails_atoms atoms =
  let arr = Array.of_list atoms in
  let all () = Array.to_list arr in
  Array.iteri
    (fun i atom ->
      match atom with
      | [ (o : N.step); (c : N.step) ] when c.at_us > o.at_us ->
          let budget = ref 8 and stop = ref false in
          while (not !stop) && !budget > 0 do
            decr budget;
            let (o : N.step), (c : N.step) =
              match arr.(i) with [ o; c ] -> (o, c) | _ -> assert false
            in
            let gap = c.at_us - o.at_us in
            if gap <= 1_000 then stop := true
            else begin
              let saved = arr.(i) in
              arr.(i) <- [ o; { c with at_us = o.at_us + (gap / 2) } ];
              if not (fails_atoms (all ())) then begin
                arr.(i) <- saved;
                stop := true
              end
            end
          done
      | _ -> ())
    arr;
  all ()

(* Round each step's time down to the grid when the failure survives
   (the candidate is re-sorted, so a snap may reorder steps). *)
let snap_times ~fails grid (sched : N.schedule) =
  let n = List.length sched in
  let cur = ref sched in
  for i = 0 to n - 1 do
    let cand =
      List.mapi
        (fun j (s : N.step) ->
          if j = i then { s with N.at_us = s.at_us - (s.at_us mod grid) }
          else s)
        !cur
      |> sort_sched
    in
    if cand <> !cur && fails cand then cur := cand
  done;
  !cur

let minimize ~fails sched =
  let sched = sort_sched sched in
  if not (fails sched) then sched
  else begin
    let fixed, atoms = atomize sched in
    let fails_atoms atoms = fails (rebuild fixed atoms) in
    let atoms = ddmin ~fails_atoms atoms in
    let atoms = sweep ~fails_atoms atoms in
    let atoms = shorten_windows ~fails_atoms atoms in
    let sched =
      List.fold_left
        (fun s grid -> snap_times ~fails grid s)
        (rebuild fixed atoms)
        [ 1_000_000; 100_000; 10_000 ]
    in
    (* a window shortened or snapped shut can leave its atom redundant:
       sweep once more so the result keeps the 1-minimality *)
    let fixed, atoms = atomize sched in
    rebuild fixed (sweep ~fails_atoms:(fun a -> fails (rebuild fixed a)) atoms)
  end
