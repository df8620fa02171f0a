(* The Sim.Prof label -> layer table of the traced run.

   Labels are matched after stripping their "dc<N>/" prefix (per-DC
   copies of one handler belong to one layer). A rule is an exact label
   or a prefix ending in '*'. Every label a traced run observes must
   match rules of exactly one layer; [rollup] reports the ones that
   match none or several, and the benchmark fails the run on either. *)

type layer = { name : string; rules : string list }

let handlers names = List.map (fun m -> "replica/handle:" ^ m) names

let table =
  [
    (* the event loop itself: unlabelled events, probes, fault injection *)
    { name = "engine"; rules = [ "other"; "sim/*"; "nemesis/*" ] };
    { name = "net.deliver"; rules = [ "net/deliver" ] };
    { name = "net.ack"; rules = [ "net/ack" ] };
    { name = "net.retransmit"; rules = [ "net/retransmit" ] };
    (* Algorithms A2-A3: client-facing transaction execution, local 2PC
       and its persistence-mode orphan resolution *)
    {
      name = "replica.txn";
      rules =
        "replica/orphans"
        :: handlers
             [
               "c_start"; "c_read"; "c_update"; "c_commit_causal";
               "c_uniform_barrier"; "c_attach"; "c_failover"; "get_version";
               "version"; "prepare"; "prepare_ack"; "commit"; "commit_query";
               "commit_abort";
             ];
    };
    (* Algorithm A4: propagation of local commits to sibling replicas *)
    {
      name = "replica.replication";
      rules =
        "replica/propagate" :: handlers [ "replicate"; "heartbeat"; "push_updates" ];
    };
    (* Algorithm A5: the in-DC dissemination tree (kv_up / stable_down)
       and the cross-DC stableVec / knownVec gossip *)
    {
      name = "replica.stabilisation";
      rules =
        "replica/broadcast"
        :: handlers [ "kv_up"; "stable_down"; "stablevec"; "knownvec_global" ];
    };
    (* DC rejoin sync and replication-gap repair *)
    {
      name = "replica.catchup";
      rules =
        "replica/sync"
        :: handlers
             [
               "sync_request"; "sync_store"; "sync_pull"; "sync_log";
               "sync_tail"; "repair_request"; "repair_log";
             ];
    };
    (* Algorithms A6-A10: certification, its Paxos groups and leader
       recovery; the REDBLUE service when configured *)
    {
      name = "cert";
      rules =
        [ "replica/strong_heartbeat"; "replica/housekeeping"; "rbcert/*" ]
        @ handlers
            [
              "c_commit_strong"; "c_resubmit_strong"; "prepare_strong";
              "already_decided"; "accept"; "accept_ack"; "unknown_tx";
              "unknown_tx_ack"; "decision"; "learn_decision"; "deliver";
              "nack"; "new_leader"; "new_leader_ack"; "new_state";
              "new_state_ack"; "state_request";
            ];
    };
    { name = "wal"; rules = [ "wal/*"; "replica/snapshot" ] };
    { name = "detector"; rules = [ "detector/*" ] };
    { name = "client"; rules = [ "client/*"; "fiber/*" ] };
  ]

let names = List.map (fun l -> l.name) table

let strip_dc label =
  let n = String.length label in
  if n > 2 && String.sub label 0 2 = "dc" then
    match String.index_opt label '/' with
    | Some i
      when i > 2
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub label 2 (i - 2)) ->
        String.sub label (i + 1) (n - i - 1)
    | _ -> label
  else label

let rule_matches rule label =
  let n = String.length rule in
  if n > 0 && rule.[n - 1] = '*' then
    String.length label >= n - 1 && String.sub label 0 (n - 1) = String.sub rule 0 (n - 1)
  else rule = label

let layers_of label =
  let l = strip_dc label in
  List.filter_map
    (fun layer ->
      if List.exists (fun r -> rule_matches r l) layer.rules then Some layer.name
      else None)
    table

type totals = {
  mutable events : int;
  mutable words : float;
  mutable wall_s : float;  (* raw sampled seconds *)
}

type rollup = {
  per_layer : (string * totals) list;  (* in [table] order *)
  unmapped : string list;
  ambiguous : string list;
}

let rollup (entries : Sim.Prof.entry list) =
  let per_layer =
    List.map (fun n -> (n, { events = 0; words = 0.0; wall_s = 0.0 })) names
  in
  let unmapped = ref [] and ambiguous = ref [] in
  List.iter
    (fun (e : Sim.Prof.entry) ->
      match layers_of e.e_label with
      | [ n ] ->
          let t = List.assoc n per_layer in
          t.events <- t.events + e.e_events;
          t.words <- t.words +. e.e_minor_words +. e.e_major_words;
          t.wall_s <- t.wall_s +. e.e_wall_s
      | [] -> unmapped := e.e_label :: !unmapped
      | _ -> ambiguous := e.e_label :: !ambiguous)
    entries;
  { per_layer; unmapped = List.rev !unmapped; ambiguous = List.rev !ambiguous }
