(* Replicated data types (§3 of the paper).

   Every data item is associated with a type backed by a CRDT
   implementation that merges concurrent updates. UniStore's formal proof
   specialises the store to last-writer-wins registers (§A); the paper's
   examples also use counters (account balances) and sets. We provide:

   - LWW register  — total order on updates by (Lamport clock, origin);
   - PN-counter    — increments/decrements commute;
   - LWW-element set — per-element add/remove resolved by tag order;
   - MV-register   — keeps all causally-maximal written values.

   Operations are applied from the per-key operation log. Each logged
   operation carries a [tag] (its transaction's Lamport clock plus an
   origin tie-breaker) and the transaction's commit vector; [apply] is
   insensitive to application order given these, so replicas that have
   the same set of operations converge regardless of delivery order
   (strong eventual consistency). *)

type tag = { lc : int; origin : int }

let tag_compare a b =
  match compare a.lc b.lc with 0 -> compare a.origin b.origin | c -> c

type op =
  | Reg_write of int
  | Ctr_add of int
  | Set_add of int
  | Set_remove of int
  | Mv_write of int

let op_pp ppf = function
  | Reg_write v -> Fmt.pf ppf "reg_write(%d)" v
  | Ctr_add v -> Fmt.pf ppf "ctr_add(%d)" v
  | Set_add v -> Fmt.pf ppf "set_add(%d)" v
  | Set_remove v -> Fmt.pf ppf "set_remove(%d)" v
  | Mv_write v -> Fmt.pf ppf "mv_write(%d)" v

type state =
  | Empty
  | Reg of int * tag
  | Ctr of int
  | Set of (int, bool * tag) Hashtbl.t  (* element -> (present, deciding tag) *)
  | Mv of (int * Vclock.Vc.t) list  (* concurrent values with their commit vectors *)

let empty = Empty

type value =
  | V_none
  | V_int of int
  | V_set of int list
  | V_multi of int list

let value_pp ppf = function
  | V_none -> Fmt.pf ppf "none"
  | V_int v -> Fmt.pf ppf "%d" v
  | V_set vs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) vs
  | V_multi vs -> Fmt.pf ppf "<%a>" Fmt.(list ~sep:comma int) vs

let type_error expected op =
  invalid_arg
    (Fmt.str "Crdt.apply: %a applied to a %s item" op_pp op expected)

(* Apply one logged operation. [vec] is the commit vector of the
   operation's transaction (used only by MV-registers). *)
let apply state op ~tag ~vec =
  match (state, op) with
  | Empty, Reg_write v -> Reg (v, tag)
  | Reg (v0, t0), Reg_write v ->
      if tag_compare tag t0 > 0 then Reg (v, tag) else Reg (v0, t0)
  | Empty, Ctr_add v -> Ctr v
  | Ctr c, Ctr_add v -> Ctr (c + v)
  | Empty, (Set_add _ | Set_remove _) ->
      let h = Hashtbl.create 8 in
      let state = Set h in
      let present = match op with Set_add _ -> true | _ -> false in
      let elt = match op with Set_add e | Set_remove e -> e | _ -> 0 in
      Hashtbl.replace h elt (present, tag);
      state
  | Set h, (Set_add elt | Set_remove elt) ->
      let present = match op with Set_add _ -> true | _ -> false in
      (match Hashtbl.find_opt h elt with
      | Some (_, t0) when tag_compare tag t0 <= 0 -> ()
      | _ -> Hashtbl.replace h elt (present, tag));
      Set h
  | Empty, Mv_write v -> Mv [ (v, vec) ]
  | Mv vs, Mv_write v ->
      (* Keep values whose vectors are not dominated by the new write, and
         drop the write itself if an existing value dominates it. *)
      let dominated = List.exists (fun (_, w) -> Vclock.Vc.leq vec w) vs in
      let vs = List.filter (fun (_, w) -> not (Vclock.Vc.lt w vec)) vs in
      Mv (if dominated then vs else (v, vec) :: vs)
  | Reg _, op -> type_error "register" op
  | Ctr _, op -> type_error "counter" op
  | Set _, op -> type_error "set" op
  | Mv _, op -> type_error "mv-register" op

let read = function
  | Empty -> V_none
  | Reg (v, _) -> V_int v
  | Ctr c -> V_int c
  | Set h ->
      let elts =
        Hashtbl.fold (fun e (present, _) acc -> if present then e :: acc else acc) h []
      in
      V_set (List.sort compare elts)
  | Mv vs -> V_multi (List.sort compare (List.map fst vs))

(* Deep copy, so cached materialisations cannot alias live state. *)
let copy = function
  | Empty -> Empty
  | Reg (v, t) -> Reg (v, t)
  | Ctr c -> Ctr c
  | Set h -> Set (Hashtbl.copy h)
  | Mv vs -> Mv vs

(* Apply an operation directly to a materialised value. Used by the
   transaction coordinator to overlay a transaction's own buffered writes
   on a snapshot read (read your writes within a transaction, Algorithm 1
   line 13): buffered writes are always newer than the snapshot, so
   value-level application agrees with state-level application. *)
let apply_to_value v op =
  match (v, op) with
  | _, Reg_write x -> V_int x
  | (V_none | V_int _), Ctr_add n ->
      let base = match v with V_int c -> c | _ -> 0 in
      V_int (base + n)
  | (V_none | V_set _), Set_add e ->
      let elts = match v with V_set es -> es | _ -> [] in
      V_set (List.sort_uniq compare (e :: elts))
  | (V_none | V_set _), Set_remove e ->
      let elts = match v with V_set es -> es | _ -> [] in
      V_set (List.filter (fun x -> x <> e) elts)
  | _, Mv_write x -> V_multi [ x ]
  | _, op -> invalid_arg (Fmt.str "Crdt.apply_to_value: %a" op_pp op)

let int_value = function
  | V_int v -> v
  | V_none -> 0
  | v -> invalid_arg (Fmt.str "Crdt.int_value: %a" value_pp v)
