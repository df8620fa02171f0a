(* Structured event tracing for simulations.

   A trace is an in-memory ring of typed events with simulated
   timestamps. Components emit events through a [t]; the harness decides
   whether tracing is enabled (disabled tracing costs one branch per
   emit: [emitf] then formats nothing). Traces can be filtered, counted, and rendered as a text
   timeline — the debugging workflow the examples and tests rely on when
   a run misbehaves.

   Two event shapes share the ring: instants ([emit], duration 0) and
   spans ([emit_span], a start time plus a duration). Spans carry the
   transaction-lifecycle phases of the protocol instrumentation and
   render as duration events in the Chrome trace-event export
   ([chrome_json]), which Perfetto and chrome://tracing load directly. *)

type event = {
  ev_time : int;  (* simulated microseconds (span: start time) *)
  ev_dur : int;  (* span duration; 0 for instant events *)
  ev_source : string;  (* component, e.g. "replica 0.3" *)
  ev_kind : string;  (* event class, e.g. "commit" *)
  ev_detail : string;
}

type t = {
  mutable events : event array;
  mutable len : int;
  mutable dropped : int;
  capacity : int;
  enabled : bool;
  clock : unit -> int;
}

let dummy =
  { ev_time = 0; ev_dur = 0; ev_source = ""; ev_kind = ""; ev_detail = "" }

let create ?(capacity = 100_000) ~clock ~enabled () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    events = (if enabled then Array.make (min capacity 4096) dummy else [||]);
    len = 0;
    dropped = 0;
    capacity;
    enabled;
    clock;
  }

let disabled = create ~capacity:1 ~clock:(fun () -> 0) ~enabled:false ()
let enabled t = t.enabled

let push t ev =
  if t.len = t.capacity then t.dropped <- t.dropped + 1
  else begin
    if t.len = Array.length t.events then begin
      let bigger =
        Array.make (min t.capacity (2 * Array.length t.events)) dummy
      in
      Array.blit t.events 0 bigger 0 t.len;
      t.events <- bigger
    end;
    t.events.(t.len) <- ev;
    t.len <- t.len + 1
  end

let emit t ~source ~kind detail =
  if t.enabled then
    push t
      {
        ev_time = t.clock ();
        ev_dur = 0;
        ev_source = source;
        ev_kind = kind;
        ev_detail = detail;
      }

(* A span that started at [start] (simulated us) and ends now. *)
let emit_span t ~source ~kind ~start detail =
  if t.enabled then
    push t
      {
        ev_time = start;
        ev_dur = max 0 (t.clock () - start);
        ev_source = source;
        ev_kind = kind;
        ev_detail = detail;
      }

(* Disabled tracing skips the formatting too: the arguments are consumed
   without running any printer, so a dropped detail string is never
   built. *)
let emitf t ~source ~kind fmt =
  if t.enabled then Fmt.kstr (emit t ~source ~kind) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let length t = t.len
let dropped t = t.dropped

let matches ?source ?kind e =
  (match source with Some s -> e.ev_source = s | None -> true)
  && match kind with Some k -> e.ev_kind = k | None -> true

let events ?source ?kind t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    if matches ?source ?kind t.events.(i) then out := t.events.(i) :: !out
  done;
  !out

let count ?source ?kind t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if matches ?source ?kind t.events.(i) then incr n
  done;
  !n

(* Events within a simulated-time interval. *)
let between t ~start ~stop =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let e = t.events.(i) in
    if e.ev_time >= start && e.ev_time < stop then out := e :: !out
  done;
  !out

let pp_event ppf e =
  if e.ev_dur > 0 then
    Fmt.pf ppf "%8dus %-14s %-12s %s [%dus]" e.ev_time e.ev_source e.ev_kind
      e.ev_detail e.ev_dur
  else
    Fmt.pf ppf "%8dus %-14s %-12s %s" e.ev_time e.ev_source e.ev_kind
      e.ev_detail

(* Per-kind histogram, largest first. *)
let summary t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let k = t.events.(i).ev_kind in
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (Perfetto / chrome://tracing).

   Every distinct [ev_source] becomes a named thread (track) of one
   process; spans render as complete duration events (ph "X") and
   instants as thread-scoped instant events (ph "i"). Timestamps are
   already microseconds, the unit the format expects. *)

let chrome_json t =
  (* stable track ids: sources sorted, so the export is deterministic
     regardless of emission interleaving *)
  let sources = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace sources t.events.(i).ev_source ()
  done;
  let tids = Hashtbl.create 16 in
  let names =
    Hashtbl.fold (fun s () acc -> s :: acc) sources [] |> List.sort compare
  in
  List.iteri (fun i s -> Hashtbl.replace tids s i) names;
  let meta =
    List.mapi
      (fun i s ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int i);
            ("args", Json.Obj [ ("name", Json.String s) ]);
          ])
      names
  in
  let evs = ref [] in
  for i = t.len - 1 downto 0 do
    let e = t.events.(i) in
    let tid = Hashtbl.find tids e.ev_source in
    let base =
      [
        ("name", Json.String e.ev_kind);
        ("cat", Json.String e.ev_kind);
        ("ts", Json.Int e.ev_time);
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("detail", Json.String e.ev_detail) ]);
      ]
    in
    let ev =
      if e.ev_dur > 0 then
        Json.Obj (base @ [ ("ph", Json.String "X"); ("dur", Json.Int e.ev_dur) ])
      else
        Json.Obj (base @ [ ("ph", Json.String "i"); ("s", Json.String "t") ])
    in
    evs := ev :: !evs
  done;
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ !evs));
      ("displayTimeUnit", Json.String "ms");
    ]
