(* Heartbeat-based Ω failure detector (one instance per deployment, one
   detector node per data center).

   Replaces the oracle that previously wired [System.fail_dc] straight to
   [Replica.suspect]: each DC now runs a detector node that broadcasts
   [Msg.Fd_ping] to its peers every [Config.fd_period_us] and suspects
   any DC it has not heard from for [Config.detection_delay_us].
   Suspicion is a *local, fallible* judgement — a transient partition or
   a gray link produces false suspicions, which is precisely the regime
   Ω permits: eventually, once the network stabilises, correct DCs stop
   being suspected ([unsuspect] fires when their pings resume) and all
   observers converge on trusting the same leader.

   The detector only observes and notifies; what trust means is the
   replicas' business ([Replica.suspect] / [Replica.unsuspect] and the
   certification ballot machinery). *)

module Network = Net.Network
module Engine = Sim.Engine

(* One observer's view of the world. *)
type view = {
  last_heard : int array;  (* dc -> time of the last ping received *)
  suspected : bool array;
}

type t = {
  cfg : Config.t;
  eng : Engine.t;
  net : Msg.t Network.t;
  addrs : Msg.addr array;  (* detector node of each DC *)
  views : view array;  (* indexed by observer DC *)
  gens : int array;  (* per-DC loop generation (crash/recover cycles) *)
  trace : Sim.Trace.t;
  on_suspect : observer:int -> dc:int -> unit;
  on_restore : observer:int -> dc:int -> unit;
  (* Ω transitions, counted once, in the metrics registry; a false
     suspicion suspected a DC that had not crashed *)
  m_suspicions : Sim.Metrics.counter;
  m_false_suspicions : Sim.Metrics.counter;
  m_restorations : Sim.Metrics.counter;
}

let suspicions t = Sim.Metrics.counter_value t.m_suspicions
let false_suspicions t = Sim.Metrics.counter_value t.m_false_suspicions
let restorations t = Sim.Metrics.counter_value t.m_restorations

let mark_suspected t ~observer ~dc =
  let v = t.views.(observer) in
  if not v.suspected.(dc) then begin
    v.suspected.(dc) <- true;
    Sim.Metrics.incr t.m_suspicions;
    if not (Network.dc_failed t.net dc) then
      Sim.Metrics.incr t.m_false_suspicions;
    Sim.Trace.emitf t.trace ~source:"fd" ~kind:"suspect"
      "dc%d suspects dc%d%s" observer dc
      (if Network.dc_failed t.net dc then "" else " (falsely)");
    t.on_suspect ~observer ~dc
  end

let heard_from t ~observer ~dc =
  let v = t.views.(observer) in
  v.last_heard.(dc) <- Engine.now t.eng;
  if v.suspected.(dc) then begin
    v.suspected.(dc) <- false;
    Sim.Metrics.incr t.m_restorations;
    Sim.Trace.emitf t.trace ~source:"fd" ~kind:"unsuspect"
      "dc%d rehabilitates dc%d" observer dc;
    t.on_restore ~observer ~dc
  end

let handle t ~observer msg =
  match msg with
  | Msg.Fd_ping { from_dc } -> heard_from t ~observer ~dc:from_dc
  | _ -> ()  (* detector nodes receive only pings *)

(* Arm one DC's detector loops: the ping broadcast and the silence check.
   Both die when the DC crashes; [revive] re-arms them under a fresh
   generation (the generation check retires a pre-crash loop that never
   got to observe the crash because recovery was quicker than its
   period). *)
let arm t dc =
  let period = Config.fd_period_us in
  let timeout = Config.detection_delay_us in
  let dcs = Config.dcs t.cfg in
  t.gens.(dc) <- t.gens.(dc) + 1;
  let gen = t.gens.(dc) in
  let live () = t.gens.(dc) = gen && not (Network.dc_failed t.net dc) in
  (* stagger DCs so pings do not cross the WAN in lock-step *)
  let phase = 1 + (dc * period / dcs) in
  let lab name =
    if Sim.Prof.is_on (Engine.prof t.eng) then
      Sim.Prof.label (Engine.prof t.eng) name
    else Sim.Prof.none
  in
  Engine.every t.eng ~label:(lab "detector/ping") ~period ~phase (fun () ->
      if not (live ()) then false
      else begin
        for peer = 0 to dcs - 1 do
          if peer <> dc then
            Network.send t.net ~src:t.addrs.(dc) ~dst:t.addrs.(peer)
              (Msg.Fd_ping { from_dc = dc })
        done;
        true
      end);
  Engine.every t.eng ~label:(lab "detector/check") ~period
    ~phase:(phase + (period / 2)) (fun () ->
      if not (live ()) then false
      else begin
        let v = t.views.(dc) in
        let now = Engine.now t.eng in
        for peer = 0 to dcs - 1 do
          if
            peer <> dc
            && (not v.suspected.(peer))
            && now - v.last_heard.(peer) > timeout
          then mark_suspected t ~observer:dc ~dc:peer
        done;
        true
      end)

(* The DC crashed: retire its ping/check loops *eagerly* by bumping the
   generation, instead of waiting for a loop's next firing to notice
   [dc_failed]. Without the bump, a pre-crash check loop scheduled just
   before the crash can survive a fast crash→recover cycle and fire
   against the recovered incarnation with the stale pre-crash view —
   producing suspicions the new incarnation never observed grounds for.
   The view itself is left in place; [revive] clears it. *)
let crash t ~dc = t.gens.(dc) <- t.gens.(dc) + 1

(* The DC recovered from a crash: its detector node restarts with an
   all-clear view (crashes lose memory; real failures elsewhere are
   re-detected within the detection delay) and resumed ping loops. Peers
   need no call — their Ω rehabilitates the DC when its pings resume. *)
let revive t ~dc =
  let v = t.views.(dc) in
  let now = Engine.now t.eng in
  for peer = 0 to Config.dcs t.cfg - 1 do
    v.last_heard.(peer) <- now;
    v.suspected.(peer) <- false
  done;
  arm t dc

let create cfg eng net ~trace ~metrics ~on_suspect ~on_restore =
  let dcs = Config.dcs cfg in
  let t =
    {
      cfg;
      eng;
      net;
      addrs = Array.make dcs (-1);
      views =
        Array.init dcs (fun _ ->
            {
              last_heard = Array.make dcs 0;
              suspected = Array.make dcs false;
            });
      gens = Array.make dcs 0;
      trace;
      on_suspect;
      on_restore;
      m_suspicions = Sim.Metrics.counter metrics "fd_suspicions_total";
      m_false_suspicions =
        Sim.Metrics.counter metrics "fd_false_suspicions_total";
      m_restorations = Sim.Metrics.counter metrics "fd_restorations_total";
    }
  in
  for dc = 0 to dcs - 1 do
    t.addrs.(dc) <-
      Network.register net ~dc ~name:"detector"
        ~cost:(Msg.cost cfg.Config.costs)
        (fun msg -> handle t ~observer:dc msg)
  done;
  for dc = 0 to dcs - 1 do
    arm t dc
  done;
  t
