(* Nemesis: scheduled fault injection against a running deployment.

   A schedule is a list of (time, event) pairs — crash a DC, cut or heal
   a partition, degrade or restore a link, change the loss rate — that
   the driver injects while the workload runs. Schedules are either
   scripted (tests pin exact adversities) or generated from a seed
   ([random_schedule]), so every nemesis run replays deterministically.

   The adversary is bounded the way the paper's model demands: at most
   [f] DCs crash, and a [Heal_all] event ends the schedule, after which
   the network is reliable again — the regime in which UniStore promises
   that pending strong transactions decide and all correct DCs
   converge. *)

module Network = Net.Network
module Engine = Sim.Engine
module Rng = Sim.Rng

type event =
  | Crash_dc of int  (* whole-DC failure (permanent unless recovered) *)
  | Recover_dc of int  (* restart a crashed DC through the rejoin protocol *)
  | Partition of int * int  (* cut the bidirectional link between DCs *)
  | Heal of int * int
  | Heal_all  (* heal every partition and restore every degraded link *)
  | Degrade of { src : int; dst : int; extra_us : int }  (* gray link *)
  | Restore of { src : int; dst : int }
  | Set_drop of float  (* change the steady-state loss rate *)
  (* Node-level failure domain (persistence deployments): one replica
     process crashes and restarts from its own disk while its DC stays
     up. Do not mix with a [Crash_dc] of the same DC in one schedule —
     a node restarted into a crashed DC cannot catch up. *)
  | Crash_node of { dc : int; part : int }
  | Restart_node of { dc : int; part : int }
  | Slow_disk of { dc : int; part : int; factor : int }  (* gray disk *)
  | Restore_disk of { dc : int; part : int }

type step = { at_us : int; ev : event }

type schedule = step list

let pp_event ppf = function
  | Crash_dc dc -> Fmt.pf ppf "crash dc%d" dc
  | Recover_dc dc -> Fmt.pf ppf "recover dc%d" dc
  | Partition (a, b) -> Fmt.pf ppf "partition dc%d <-> dc%d" a b
  | Heal (a, b) -> Fmt.pf ppf "heal dc%d <-> dc%d" a b
  | Heal_all -> Fmt.pf ppf "heal all"
  | Degrade { src; dst; extra_us } ->
      Fmt.pf ppf "degrade dc%d -> dc%d (+%dus)" src dst extra_us
  | Restore { src; dst } -> Fmt.pf ppf "restore dc%d -> dc%d" src dst
  | Set_drop p -> Fmt.pf ppf "set drop %.3f" p
  | Crash_node { dc; part } -> Fmt.pf ppf "crash node %d.%d" dc part
  | Restart_node { dc; part } -> Fmt.pf ppf "restart node %d.%d" dc part
  | Slow_disk { dc; part; factor } ->
      Fmt.pf ppf "slow disk %d.%d (x%d)" dc part factor
  | Restore_disk { dc; part } -> Fmt.pf ppf "restore disk %d.%d" dc part

let pp_step ppf { at_us; ev } = Fmt.pf ppf "%8dus %a" at_us pp_event ev

(* ------------------------------------------------------------------ *)
(* Schedule (de)serialization: the corpus / repro interchange format of
   the exploration harness. One JSON object per step, the event encoded
   by an ["ev"] discriminator plus its fields, so schedules replay
   byte-deterministically from a checked-in file. *)

module Json = Sim.Json

let event_to_json = function
  | Crash_dc dc -> [ ("ev", Json.String "crash_dc"); ("dc", Json.Int dc) ]
  | Recover_dc dc -> [ ("ev", Json.String "recover_dc"); ("dc", Json.Int dc) ]
  | Partition (a, b) ->
      [ ("ev", Json.String "partition"); ("a", Json.Int a); ("b", Json.Int b) ]
  | Heal (a, b) ->
      [ ("ev", Json.String "heal"); ("a", Json.Int a); ("b", Json.Int b) ]
  | Heal_all -> [ ("ev", Json.String "heal_all") ]
  | Degrade { src; dst; extra_us } ->
      [
        ("ev", Json.String "degrade");
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("extra_us", Json.Int extra_us);
      ]
  | Restore { src; dst } ->
      [
        ("ev", Json.String "restore");
        ("src", Json.Int src);
        ("dst", Json.Int dst);
      ]
  | Set_drop p -> [ ("ev", Json.String "set_drop"); ("p", Json.Float p) ]
  | Crash_node { dc; part } ->
      [
        ("ev", Json.String "crash_node");
        ("dc", Json.Int dc);
        ("part", Json.Int part);
      ]
  | Restart_node { dc; part } ->
      [
        ("ev", Json.String "restart_node");
        ("dc", Json.Int dc);
        ("part", Json.Int part);
      ]
  | Slow_disk { dc; part; factor } ->
      [
        ("ev", Json.String "slow_disk");
        ("dc", Json.Int dc);
        ("part", Json.Int part);
        ("factor", Json.Int factor);
      ]
  | Restore_disk { dc; part } ->
      [
        ("ev", Json.String "restore_disk");
        ("dc", Json.Int dc);
        ("part", Json.Int part);
      ]

let step_to_json { at_us; ev } =
  Json.Obj (("at_us", Json.Int at_us) :: event_to_json ev)

let schedule_to_json sched = Json.List (List.map step_to_json sched)

let step_of_json j =
  let int k =
    match Option.bind (Json.member k j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Fmt.str "step: missing or non-integer %S" k)
  in
  let float k =
    match Option.bind (Json.member k j) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Fmt.str "step: missing or non-numeric %S" k)
  in
  let ( let* ) = Result.bind in
  let* at_us = int "at_us" in
  let* ev =
    match Option.bind (Json.member "ev" j) Json.to_string_opt with
    | None -> Error "step: missing \"ev\" discriminator"
    | Some "crash_dc" ->
        let* dc = int "dc" in
        Ok (Crash_dc dc)
    | Some "recover_dc" ->
        let* dc = int "dc" in
        Ok (Recover_dc dc)
    | Some "partition" ->
        let* a = int "a" in
        let* b = int "b" in
        Ok (Partition (a, b))
    | Some "heal" ->
        let* a = int "a" in
        let* b = int "b" in
        Ok (Heal (a, b))
    | Some "heal_all" -> Ok Heal_all
    | Some "degrade" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* extra_us = int "extra_us" in
        Ok (Degrade { src; dst; extra_us })
    | Some "restore" ->
        let* src = int "src" in
        let* dst = int "dst" in
        Ok (Restore { src; dst })
    | Some "set_drop" ->
        let* p = float "p" in
        Ok (Set_drop p)
    | Some "crash_node" ->
        let* dc = int "dc" in
        let* part = int "part" in
        Ok (Crash_node { dc; part })
    | Some "restart_node" ->
        let* dc = int "dc" in
        let* part = int "part" in
        Ok (Restart_node { dc; part })
    | Some "slow_disk" ->
        let* dc = int "dc" in
        let* part = int "part" in
        let* factor = int "factor" in
        Ok (Slow_disk { dc; part; factor })
    | Some "restore_disk" ->
        let* dc = int "dc" in
        let* part = int "part" in
        Ok (Restore_disk { dc; part })
    | Some other -> Error (Fmt.str "step: unknown event %S" other)
  in
  Ok { at_us; ev }

let schedule_of_json j =
  match Json.to_list_opt j with
  | None -> Error "schedule: expected a JSON list of steps"
  | Some steps ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
            match step_of_json s with
            | Ok step -> go (step :: acc) rest
            | Error e -> Error e)
      in
      go [] steps

(* ------------------------------------------------------------------ *)
(* Schedule validation: the footguns that used to be doc warnings are
   rejected as errors before anything is scheduled.                     *)

let is_node_event = function
  | Crash_node _ | Restart_node _ | Slow_disk _ | Restore_disk _ -> true
  | _ -> false

let validate cfg (sched : schedule) =
  let err fmt = Fmt.kstr (fun s -> Error s) fmt in
  let rec sorted = function
    | s1 :: (s2 :: _ as rest) ->
        if s1.at_us > s2.at_us then
          err "steps out of order: %a scheduled after %a" pp_step s1 pp_step s2
        else sorted rest
    | _ -> Ok ()
  in
  let ( let* ) = Result.bind in
  let* () =
    match List.find_opt (fun s -> s.at_us < 0) sched with
    | Some s -> err "negative step time: %a" pp_step s
    | None -> Ok ()
  in
  let* () = sorted sched in
  (* a partition can make a live leader falsely suspected, so the
     contested-ballot safety bound applies (see Config.default): two
     f+1 certification quorums must intersect *)
  let* () =
    if
      List.exists
        (fun { ev; _ } -> match ev with Partition _ -> true | _ -> false)
        sched
      && Config.dcs cfg > (2 * cfg.Config.f) + 1
    then
      Error
        "partitions with dcs > 2f+1 allow split-brain certification; raise f \
         or shrink the topology"
    else Ok ()
  in
  (* [System] refuses node crashes and DC recovery under REDBLUE (a
     restart needs a prior crash) *)
  let* () =
    let refused = function Crash_node _ | Recover_dc _ -> true | _ -> false in
    match List.find_opt (fun s -> refused s.ev) sched with
    | Some s when Config.centralized_cert cfg ->
        err "%a is unsupported under the REDBLUE centralized service" pp_step s
    | _ -> Ok ()
  in
  (* node-level events need a disk to survive on *)
  let* () =
    if (not cfg.Config.persistence) && List.exists (fun s -> is_node_event s.ev) sched
    then
      err "node-level events need Config.persistence (a node without a disk \
           cannot restart locally)"
    else Ok ()
  in
  (* the DC failure domain destroys disks: a node restarted into a
     crashed DC cannot catch up, so the two domains must not mix on one
     DC in one schedule *)
  let crashed_dcs =
    List.filter_map
      (fun s -> match s.ev with Crash_dc dc -> Some dc | _ -> None)
      sched
  in
  let* () =
    match
      List.find_opt
        (fun s ->
          match s.ev with
          | Crash_node { dc; _ } | Restart_node { dc; _ } ->
              List.mem dc crashed_dcs
          | _ -> false)
        sched
    with
    | Some s ->
        err "%a mixes the node and DC failure domains: the same schedule \
             crashes its whole DC, which destroys the disks"
          pp_step s
    | None -> Ok ()
  in
  (* every restart must restart something: a Restart_node with no prior
     Crash_node of the same node is a schedule bug, not a no-op *)
  let rec restarts down = function
    | [] -> Ok ()
    | { ev = Crash_node { dc; part }; _ } :: rest ->
        restarts ((dc, part) :: down) rest
    | ({ ev = Restart_node { dc; part }; _ } as s) :: rest ->
        if List.mem (dc, part) down then
          restarts (List.filter (( <> ) (dc, part)) down) rest
        else err "%a has no prior crash of node %d.%d" pp_step s dc part
    | _ :: rest -> restarts down rest
  in
  restarts [] sched

(* Inject one event now. *)
let inject_event sys ev =
  let net = System.network sys in
  let trace = System.trace sys in
  (* lazily: a node-only schedule must not flip inter-DC links onto the
     lossy transport just by being injected *)
  let faults () =
    match System.faults sys with
    | Some f -> f
    | None -> Network.enable_faults net
  in
  Sim.Trace.emitf trace ~source:"nemesis" ~kind:"inject" "%a" pp_event ev;
  match ev with
  | Crash_dc dc ->
      ignore (faults ());
      System.fail_dc sys dc
  | Recover_dc dc ->
      ignore (faults ());
      System.recover_dc sys dc
  | Partition (a, b) -> Net.Faults.partition (faults ()) a b
  | Heal (a, b) -> Net.Faults.heal (faults ()) a b
  | Heal_all ->
      let faults = faults () in
      Net.Faults.heal_all faults;
      let dcs = Net.Topology.dcs (Network.topology net) in
      for src = 0 to dcs - 1 do
        for dst = 0 to dcs - 1 do
          Net.Faults.clear_degrade faults ~src ~dst
        done
      done
  | Degrade { src; dst; extra_us } ->
      Net.Faults.degrade_link (faults ()) ~src ~dst ~extra_us
  | Restore { src; dst } -> Net.Faults.clear_degrade (faults ()) ~src ~dst
  | Set_drop p -> Net.Faults.set_drop (faults ()) p
  | Crash_node { dc; part } -> System.fail_node sys ~dc ~part
  | Restart_node { dc; part } -> System.restart_node sys ~dc ~part
  | Slow_disk { dc; part; factor } -> System.set_disk_slow sys ~dc ~part ~factor
  | Restore_disk { dc; part } -> System.set_disk_slow sys ~dc ~part ~factor:1

(* Schedule every step of [sched] onto the system's engine. Call before
   [System.run]. *)
let inject sys (sched : schedule) =
  (match validate (System.cfg sys) sched with
  | Ok () -> ()
  | Error e -> invalid_arg ("Nemesis.inject: " ^ e));
  let eng = System.engine sys in
  let label = Sim.Prof.label (Engine.prof eng) "nemesis/inject" in
  List.iter
    (fun { at_us; ev } ->
      Engine.schedule_at eng ~label ~time:at_us (fun () ->
          inject_event sys ev))
    sched

(* ------------------------------------------------------------------ *)
(* Scripted adversity-during-recovery fragments.                        *)

(* Combine scripted fragments into one time-ordered schedule. *)
let merge scheds =
  List.sort (fun s1 s2 -> compare s1.at_us s2.at_us) (List.concat scheds)

(* Cut the rejoiner off from one of its sync peers for a window — the
   peer cannot answer snapshot requests or pulls, so the rejoin must
   drop it from the round and finish with the others. *)
let partition_during_sync ~rejoiner ~peer ~from_us ~until_us =
  [
    { at_us = from_us; ev = Partition (rejoiner, peer) };
    { at_us = until_us; ev = Heal (rejoiner, peer) };
  ]

(* Crash a polled sibling mid-round; pair with the caller's own
   recovery step if the sibling should come back. *)
let crash_during_sync ~peer ~at_us = [ { at_us; ev = Crash_dc peer } ]

(* ------------------------------------------------------------------ *)
(* Scripted node-level fragments (persistence deployments).             *)

(* Rolling restart of a whole DC: node [0..partitions-1] in turn
   crashes at [start_us + i*stagger_us] and restarts [down_us] later.
   With [stagger_us > down_us] at most one node is down at a time — the
   ops-procedure roll the rolling bench drives under live traffic. *)
let rolling_restart ~dc ~partitions ~start_us ~down_us ~stagger_us =
  List.concat
    (List.init partitions (fun part ->
         let at = start_us + (part * stagger_us) in
         [
           { at_us = at; ev = Crash_node { dc; part } };
           { at_us = at + down_us; ev = Restart_node { dc; part } };
         ]))

(* Supervisor-style restart loop: the same node crash/restarts [cycles]
   times, [period_us] apart — the flapping process a broken supervisor
   produces. Each cycle must recover from whatever the previous one
   left on disk. *)
let restart_loop ~dc ~part ~start_us ~cycles ~down_us ~period_us =
  List.concat
    (List.init cycles (fun i ->
         let at = start_us + (i * period_us) in
         [
           { at_us = at; ev = Crash_node { dc; part } };
           { at_us = at + down_us; ev = Restart_node { dc; part } };
         ]))

(* Gray disk: one node's fsyncs run [factor] times slower for a window
   (firmware stall, dying SSD). The node stays up — acks gated on
   fsync simply slow down. *)
let gray_disk ~dc ~part ~factor ~from_us ~until_us =
  [
    { at_us = from_us; ev = Slow_disk { dc; part; factor } };
    { at_us = until_us; ev = Restore_disk { dc; part } };
  ]

(* ------------------------------------------------------------------ *)
(* Seeded random schedules.                                             *)

(* Crash at most [max_crashes] DCs (never the majority — the paper's
   bound is f), cut and heal a few transient partitions, degrade a few
   links, and finish with [Heal_all] before [horizon_us] so liveness
   assertions apply. The same seed always yields the same schedule. *)
let random_schedule ~seed ~dcs ~horizon_us ?(max_crashes = 1)
    ?(max_partitions = 2) ?(max_degrades = 2) ?(max_recoveries = 0)
    ?(max_sync_partitions = 0) ?(max_sync_degrades = 0)
    ?(max_node_crashes = 0) ?(node_partitions = 1) () =
  if dcs < 2 then invalid_arg "Nemesis.random_schedule: need at least 2 DCs";
  if horizon_us <= 0 then invalid_arg "Nemesis.random_schedule: bad horizon";
  let rng = Rng.create (seed lxor 0x4e454d) in
  (* faults start in the second quarter-to-5/8ths of the run: the system
     warms up first, nothing new begins after the final heal, and
     everything settles before the horizon *)
  let lo = horizon_us / 4 and hi = 3 * horizon_us / 8 in
  let t () = lo + Rng.int rng (max 1 hi) in
  let steps = ref [] in
  let push at_us ev = steps := { at_us; ev } :: !steps in
  (* transient partitions, each healing after a bounded interval *)
  let n_parts = if max_partitions <= 0 then 0 else Rng.int rng (max_partitions + 1) in
  for _ = 1 to n_parts do
    let a = Rng.int rng dcs in
    let b = (a + 1 + Rng.int rng (dcs - 1)) mod dcs in
    let start = t () in
    let len = horizon_us / 16 + Rng.int rng (max 1 (horizon_us / 8)) in
    push start (Partition (a, b));
    push (start + len) (Heal (a, b))
  done;
  (* gray links *)
  let n_deg = if max_degrades <= 0 then 0 else Rng.int rng (max_degrades + 1) in
  for _ = 1 to n_deg do
    let src = Rng.int rng dcs in
    let dst = (src + 1 + Rng.int rng (dcs - 1)) mod dcs in
    let start = t () in
    let len = horizon_us / 16 + Rng.int rng (max 1 (horizon_us / 8)) in
    push start (Degrade { src; dst; extra_us = 5_000 + Rng.int rng 45_000 });
    push (start + len) (Restore { src; dst })
  done;
  (* crashes: distinct DCs, at most max_crashes, never all *)
  let n_crash = min max_crashes (dcs - 1) in
  let n_crash = if n_crash <= 0 then 0 else Rng.int rng (n_crash + 1) in
  let crashed = Array.make dcs false in
  let crash_times = ref [] in
  for _ = 1 to n_crash do
    let dc = Rng.int rng dcs in
    if not crashed.(dc) then begin
      crashed.(dc) <- true;
      let at = t () in
      crash_times := (dc, at) :: !crash_times;
      push at (Crash_dc dc)
    end
  done;
  (* crash/recover cycles: the first [max_recoveries] crashed DCs come
     back through the rejoin protocol, a bounded interval after the
     crash and no later than the final heal, leaving the last quarter
     of the run for catch-up and convergence. The default of 0 draws
     nothing from the Rng, preserving the schedules of existing seeds. *)
  let recoveries = ref [] in
  if max_recoveries > 0 then begin
    let budget = ref max_recoveries in
    List.iter
      (fun (dc, at) ->
        if !budget > 0 then begin
          decr budget;
          let delay =
            (horizon_us / 16) + Rng.int rng (max 1 (horizon_us / 16))
          in
          recoveries := (dc, at + delay) :: !recoveries;
          push (at + delay) (Recover_dc dc)
        end)
      (List.rev !crash_times)
  end;
  (* Overlap modes: adversity aimed at the *recovery itself*. For each
     crash/recover cycle, cut partitions ([max_sync_partitions]) and
     inject gray links ([max_sync_degrades]) between the recovering DC
     and its sync peers, starting inside the crash→recover window so the
     fault spans the snapshot transfer and the catch-up, and lasting
     until the final [Heal_all] — the whole catch-up window. The defaults of 0 draw nothing
     from the Rng, preserving every existing seed's schedule (all new
     draws also come after every pre-existing one). *)
  if (max_sync_partitions > 0 || max_sync_degrades > 0) && dcs > 1 then
    List.iter
      (fun (dc, recover_at) ->
        let overlap_start crash_at =
          let window = max 1 (recover_at - crash_at) in
          crash_at + Rng.int rng window
        in
        let crash_at =
          match List.assoc_opt dc !crash_times with
          | Some at -> at
          | None -> recover_at
        in
        let peer () = (dc + 1 + Rng.int rng (dcs - 1)) mod dcs in
        for _ = 1 to max_sync_partitions do
          push (overlap_start crash_at) (Partition (dc, peer ()))
          (* healed by the final Heal_all *)
        done;
        for _ = 1 to max_sync_degrades do
          let p = peer () in
          let extra_us = 100_000 + Rng.int rng 400_000 in
          let at = overlap_start crash_at in
          push at (Degrade { src = p; dst = dc; extra_us });
          push at (Degrade { src = dc; dst = p; extra_us })
          (* restored by the final Heal_all *)
        done)
      (List.rev !recoveries);
  (* Node-level crash/restart cycles (persistence deployments; pass
     [max_crashes:0] — node restarts into a crashed DC cannot catch
     up). Drawn after every pre-existing draw so older seeds keep their
     schedules; each node restarts well before the final heal. *)
  if max_node_crashes > 0 then begin
    (* two cycles may hit the same node, but their down windows must not
       interleave — a restart of an already-restarted node is the
       schedule bug [validate] rejects. A clashing draw is skipped (not
       redrawn, keeping every other seed's schedule byte-identical). *)
    let busy = ref [] in
    for _ = 1 to max_node_crashes do
      let dc = Rng.int rng dcs in
      let part = Rng.int rng (max 1 node_partitions) in
      let at = t () in
      let down = (horizon_us / 32) + Rng.int rng (max 1 (horizon_us / 16)) in
      let clashes =
        List.exists
          (fun (n, s, e) -> n = (dc, part) && at <= e && s <= at + down)
          !busy
      in
      if not clashes then begin
        busy := ((dc, part), at, at + down) :: !busy;
        push at (Crash_node { dc; part });
        push (at + down) (Restart_node { dc; part })
      end
    done
  end;
  (* final heal, comfortably before the horizon *)
  push (3 * horizon_us / 4) Heal_all;
  List.sort (fun s1 s2 -> compare s1.at_us s2.at_us) !steps
