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
(* The in-DC dissemination tree and the sibling exchange. Only leaves
   tick, once per broadcast period on their DC's shared schedule; a
   parent forwards its subtree minimum as soon as every child has
   reported since its last forward, so one round climbs the tree in one
   hop per level and each node still sends one message per round. The
   siblings' claims arrive on their streams (Msg.claim) or, outside the
   tick, as KNOWNVEC_GLOBAL.                                             *)

let tree_parent part = (part - 1) / 2
let first_child part = (2 * part) + 1

(* The [reported] bits of [part]'s children that exist. *)
let children_mask t =
  let c = first_child t.part and n = partitions t in
  (if c < n then 1 else 0) lor if c + 1 < n then 2 else 0

let is_leaf t = first_child t.part >= partitions t

(* How long after a leaf tick the round's stableVec reaches every
   partition: [Kv_up] climbs the tree's depth and [Stable_down] takes one
   more hop, each hop the in-DC one-way latency, its jitter and the
   receiver's vector merge. On top comes the queue of a quiet DC: one
   stableVec-carrying heartbeat from every sibling DC. Each sibling's
   heartbeats reach all partitions at about the same instant, a fixed
   phase of this DC's schedule, so one delays the round at one level at
   most, and without the allowance a round that meets them misses the
   tick in most periods. Every partition's propagate tick comes this
   long after its DC's leaf tick, so the round's stableVec rides that
   period's stream. *)
let stable_lead_us t =
  let topo = t.cfg.Config.topo and c = t.cfg.Config.costs in
  let rec depth n = if n <= 1 then 0 else 1 + depth (n / 2) in
  ((depth (partitions t) + 1)
   * (Net.Topology.one_way topo ~src:t.dc ~dst:t.dc
     + Net.Topology.jitter_us topo + c.Config.c_vec))
  + ((dcs t - 1) * ((2 * c.Config.c_vec) + c.Config.c_stablevec))

let subtree_agg t =
  let agg = Vc.copy t.known_vec in
  let c = first_child t.part in
  for child = c to min (c + 1) (partitions t - 1) do
    Vc.meet_into agg t.local_agg.(child)
  done;
  agg

let update_stable t vec =
  Vc.merge_into t.stable_vec vec;
  Vc.merge_into t.stable_matrix.(t.dc) t.stable_vec;
  recompute_uniform t

(* One node's step of a round: its subtree minimum goes one level up;
   at the root it is the DC-wide minimum, merged into stableVec and
   pushed directly to every partition (aggregation is a tree,
   dissemination one hop, keeping stabilisation latency low). Run by a
   leaf's tick, by a parent once all its children reported, and once by
   every replica resuming service. *)
let broadcast_vecs t =
  t.reported <- 0;
  let agg = subtree_agg t in
  if t.part = 0 then begin
    update_stable t agg;
    (* one value snapshot for every copy: receivers only read it *)
    let vec = Vc.copy t.stable_vec in
    for p = 1 to partitions t - 1 do
      send t (local_replica t p) (Msg.Stable_down { vec })
    done
  end
  else
    send t
      (local_replica t (tree_parent t.part))
      (Msg.Kv_up { part = t.part; vec = agg })

(* Partial minima only grow: keep the freshest report per child. A
   replica still catching up does not forward (it vouches for no
   stability); it forwards once on resuming service. *)
let handle_kv_up t ~part ~vec =
  Vc.merge_into t.local_agg.(part) vec;
  t.reported <- t.reported lor (1 lsl (part - first_child t.part));
  if t.reported = children_mask t && not (is_syncing t) then broadcast_vecs t

(* A sibling's stableVec, if it sent one, feeds uniformVec first; then
   its knownVec claim pins our GC floors. While catching up, the claim
   is also how the replica learns which of its own pre-crash
   transactions a sibling holds: nobody else ever sends a DC its own
   stream back, so a claim above our own frontier is a gap in our own
   history, repaired from the siblings' retained logs (the GC
   floors retain it for us, see [Replication.prune_committed]). *)
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
