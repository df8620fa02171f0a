(* Metadata exchange (Algorithm A5): stableVec and uniformVec, computed
   over an in-DC dissemination tree (§5.4) and a cross-DC sibling
   exchange — the knownVec GC claim and the stableVec, riding each
   partition's replication stream once per propagate tick
   ([Replication.propagate_local_txs]); and the waits built on them, the
   uniform barrier and client attachment (§5.6).                        *)

open Replica_state

(* Visibility of a remote transaction for clients of this DC depends on
   the mode: uniformity (UniStore) or stability (Cure). *)
let remote_snapshot_vec t =
  if Config.tracks_uniformity t.cfg then t.uniform_vec else t.stable_vec

(* Whether a pending (ts, arrival) sample is covered by [bound]: a
   closure-free scan, so a flush that makes nothing visible allocates
   nothing. *)
let rec any_visible bound = function
  | [] -> false
  | (ts, _) :: rest -> ts <= bound || any_visible bound rest

(* Record Fig. 6 samples: remote transactions become visible when the
   mode's snapshot vector covers them. *)
let flush_visibility t =
  if t.cfg.Config.measure_visibility && t.part = 0 then begin
    let vis = remote_snapshot_vec t in
    for origin = 0 to dcs t - 1 do
      let pending = t.pending_vis.(origin) in
      if origin <> t.dc && any_visible (Vc.get vis origin) !pending then begin
        let visible, waiting =
          List.partition (fun (ts, _) -> ts <= Vc.get vis origin) !pending
        in
        pending := waiting;
        List.iter
          (fun (_, arrival) ->
            History.visibility_delay t.history ~observer:t.dc ~origin
              ~delay_us:(now t - arrival))
          visible
      end
    done
  end

(* uniformVec[j] := max over groups of f+1 DCs containing d of the
   minimum stableVec[j] within the group (Algorithm A5 lines 10–15).
   The best group keeps d and the f other DCs with the largest values;
   the f-th largest is selected in place ([Vc.nth_largest]), so the
   recompute allocates nothing. *)
let recompute_uniform t =
  let d = dcs t and f = t.cfg.Config.f in
  for j = 0 to d - 1 do
    let own = Vc.get t.stable_matrix.(t.dc) j in
    let cand =
      if f = 0 then own
      else min own (Vc.nth_largest t.stable_matrix ~skip:t.dc j f)
    in
    Vc.bump t.uniform_vec j cand
  done;
  flush_visibility t;
  flush_uniform t

(* Raise [v]'s remote entries to [vec]'s. *)
let bump_remote t v vec =
  for i = 0 to dcs t - 1 do
    if i <> t.dc then Vc.bump v i (Vc.get vec i)
  done;
  flush_visibility t;
  flush_uniform t

let bump_uniform_remote t vec = bump_remote t t.uniform_vec vec

(* In Cure mode client pasts reference stable rather than uniform remote
   transactions; the analogous bump keeps snapshots monotone. *)
let bump_snapshot_source t vec = bump_remote t (remote_snapshot_vec t) vec

(* ------------------------------------------------------------------ *)
(* The in-DC dissemination tree and the sibling exchange. The tree step
   runs once per broadcast period; the siblings' claims arrive on their
   streams (Msg.claim) or, outside the tick, as KNOWNVEC_GLOBAL.        *)

let tree_parent part = (part - 1) / 2
let tree_children t part =
  let c1 = (2 * part) + 1 and c2 = (2 * part) + 2 in
  List.filter (fun c -> c < partitions t) [ c1; c2 ]

let subtree_agg t =
  List.fold_left
    (fun agg c -> Vc.meet agg t.local_agg.(c))
    (Vc.copy t.known_vec) (tree_children t t.part)

let update_stable t vec =
  Vc.merge_into t.stable_vec vec;
  Vc.merge_into t.stable_matrix.(t.dc) t.stable_vec;
  recompute_uniform t

let broadcast_vecs t =
  let agg = subtree_agg t in
  if t.part = 0 then begin
    (* root of the dissemination tree: agg is the DC-wide minimum; the
       result is pushed directly to every partition (aggregation is a
       tree, dissemination one hop, keeping stabilisation latency low) *)
    update_stable t agg;
    for p = 1 to partitions t - 1 do
      send t (local_replica t p)
        (Msg.Stable_down { vec = Vc.copy t.stable_vec })
    done
  end
  else
    send t
      (local_replica t (tree_parent t.part))
      (Msg.Kv_up { part = t.part; vec = agg });
  Replication.prune_committed t

let handle_kv_up t ~part ~vec =
  (* partial minima only grow; keep the freshest report per child *)
  Vc.merge_into t.local_agg.(part) vec

(* A sibling's stableVec, if it sent one, feeds uniformVec first; then
   its knownVec claim pins our GC floors. While catching up, the claim
   is also how the replica learns which of its own pre-crash
   transactions a sibling holds: nobody else ever sends a DC its own
   stream back, so a claim above our own frontier is a gap in our own
   history, repaired from the siblings' retained logs (the GC
   floors retain it for us, see [prune_committed]). *)
let handle_knownvec_global t ~dc ({ vec; stable } : Msg.claim) =
  (match stable with
  | Some s ->
      Vc.merge_into t.stable_matrix.(dc) s;
      recompute_uniform t
  | None -> ());
  Vc.merge_into t.global_matrix.(dc) vec;
  match t.sync with
  | None -> ()
  | Some s ->
      if not (List.mem dc s.s_heard) then s.s_heard <- dc :: s.s_heard;
      let own = Vc.get t.known_vec t.dc and claimed = Vc.get vec t.dc in
      let r = t.repair.(t.dc) in
      if claimed > own && (claimed > r.r_upto || not r.r_active) then
        Replication.note_gap t ~origin:t.dc ~floor:own ~from_ts:own ~claimed

(* ------------------------------------------------------------------ *)
(* Uniform barrier and attach (§5.6).                                   *)

let handle_uniform_barrier t ~client ~req ~past =
  wait_uniform_local t ~threshold:(Vc.get past t.dc) (fun () ->
      send t client (Msg.R_ok { req }))

(* The reply waits until uniformVec covers [past] on every remote
   entry. *)
let handle_attach t ~client ~req ~past =
  let covered () =
    let ok = ref true in
    for i = 0 to dcs t - 1 do
      if i <> t.dc && Vc.get t.uniform_vec i < Vc.get past i then ok := false
    done;
    !ok
  in
  let reply () = send t client (Msg.R_ok { req }) in
  if covered () then reply () else t.waiters <- (covered, reply) :: t.waiters
