(* Simulator self-profiling: per-label event attribution.

   Every engine event carries an attribution label — a slash-separated
   hierarchical path such as "dc1/replica/handle:Replicate" or
   "wal/fsync". Labels are interned to small integers; an event
   scheduled without an explicit label inherits the label of the event
   that scheduled it, so labelling the roots (timers, network
   deliveries, fiber spawns, disk completions) attributes the whole
   event cascade. Label 0 is reserved for "other": events scheduled
   before any labelled ancestor existed. They are counted, never
   dropped, so per-label counts always sum to the executed total.

   When enabled, the engine routes every event through [account], which
   accrues per label:

   - exact event counts;
   - exact minor-heap allocation ([Gc.minor_words ()] around the
     handler: unboxed, allocation-free, exact to the word), the
     deterministic hot-path metric: words/event is identical across
     reruns under a fixed seed, so it can be gated hard in CI;
   - sampled wall-clock time: every [sample_every]-th event is timed
     with the (injectable) wall clock and the measurement scaled by the
     sampling period, bounding profiling's syscall overhead.

   Blocks too large for the minor heap go straight to the major heap
   and are not counted; [e_major_words] stays in the entry and the
   artifact schema and is always 0. A handler on the hot path allocates
   tens to hundreds of words; an event allocating
   [noise_threshold_words] (64 Ki words, 512 KiB) or more is rare bulk
   work (a snapshot install, a capacity doubling) and is set aside
   under [noise_events]/[noise_words] rather than the label, so one-off
   work does not swamp a label's per-event figure.

   Disabled profiling costs one branch per event in the engine loop and
   nothing else: [label] interns nothing and returns [none], and no Gc
   or clock calls are made. *)

type label = int

let none : label = 0

type t = {
  mutable on : bool;
  mutable sample_every : int;
  mutable clock : unit -> float;  (* wall clock, seconds; injectable *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* id -> name; index 0 = "other" *)
  mutable n : int;  (* interned labels, 0 until first enable *)
  mutable counts : int array;
  mutable minor : float array;  (* minor words allocated under the label *)
  mutable wall_s : float array;  (* raw (unscaled) sampled seconds *)
  mutable samples : int array;
  mutable total : int;  (* events accounted while enabled *)
  mutable noise_events : int;  (* events set aside as bulk work *)
  mutable noise_words : float;  (* their total words *)
}

(* Per-event allocation at or above this is one-off bulk work, not
   hot-path handler cost. *)
let noise_threshold_words = 65536.0

let create () =
  {
    on = false;
    sample_every = 64;
    clock = Unix.gettimeofday;
    ids = Hashtbl.create 64;
    names = [||];
    n = 0;
    counts = [||];
    minor = [||];
    wall_s = [||];
    samples = [||];
    total = 0;
    noise_events = 0;
    noise_words = 0.0;
  }

let is_on t = t.on
let set_clock t clock = t.clock <- clock
let wall t = t.clock ()
let sample_every t = t.sample_every
let interned t = t.n
let total_events t = t.total
let noise_events t = t.noise_events
let noise_words t = t.noise_words

let grow t =
  let cap = max 16 (2 * Array.length t.names) in
  let copy a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.names <- copy t.names "";
  t.counts <- copy t.counts 0;
  t.minor <- copy t.minor 0.0;
  t.wall_s <- copy t.wall_s 0.0;
  t.samples <- copy t.samples 0

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = t.n in
      if id = Array.length t.names then grow t;
      t.names.(id) <- name;
      Hashtbl.replace t.ids name id;
      t.n <- id + 1;
      id

let enable ?(sample_every = 64) t =
  if sample_every < 1 then
    invalid_arg "Prof.enable: sample_every must be >= 1";
  t.sample_every <- sample_every;
  if t.n = 0 then ignore (intern t "other");
  t.on <- true

(* Intern [name]; a disabled profiler interns nothing and returns
   [none], so instrumentation sites can call this unconditionally. *)
let label t name = if t.on then intern t name else none

(* Execute one engine event under [lab]'s account. Hot path: called for
   every event while profiling is on. *)
let account t lab f =
  let lab = if lab >= 0 && lab < t.n then lab else 0 in
  t.total <- t.total + 1;
  t.counts.(lab) <- t.counts.(lab) + 1;
  let sampled = t.total mod t.sample_every = 0 in
  let t0 = if sampled then t.clock () else 0.0 in
  let w0 = Gc.minor_words () in
  f ();
  let dw = Gc.minor_words () -. w0 in
  if dw >= noise_threshold_words then begin
    t.noise_events <- t.noise_events + 1;
    t.noise_words <- t.noise_words +. dw
  end
  else t.minor.(lab) <- t.minor.(lab) +. dw;
  if sampled then begin
    t.samples.(lab) <- t.samples.(lab) + 1;
    t.wall_s.(lab) <- t.wall_s.(lab) +. (t.clock () -. t0)
  end

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                           *)

type entry = {
  e_label : string;
  e_events : int;
  e_minor_words : float;
  e_major_words : float;
  e_wall_samples : int;
  e_wall_s : float;  (* raw sampled seconds (multiply by the sampling
                        period for the wall-clock estimate) *)
}

let words_per_event e =
  if e.e_events = 0 then 0.0
  else (e.e_minor_words +. e.e_major_words) /. float_of_int e.e_events

(* Labels with at least one event, busiest first (ties on the label
   string, so the order is deterministic). *)
let entries t =
  let out = ref [] in
  for id = t.n - 1 downto 0 do
    if t.counts.(id) > 0 then
      out :=
        {
          e_label = t.names.(id);
          e_events = t.counts.(id);
          e_minor_words = t.minor.(id);
          e_major_words = 0.0;
          e_wall_samples = t.samples.(id);
          e_wall_s = t.wall_s.(id);
        }
        :: !out
  done;
  List.sort
    (fun a b ->
      match compare b.e_events a.e_events with
      | 0 -> compare a.e_label b.e_label
      | c -> c)
    !out

let attributed_events t = if t.n = 0 then 0 else t.total - t.counts.(0)

let coverage_pct t =
  if t.total = 0 then 100.0
  else 100.0 *. float_of_int (attributed_events t) /. float_of_int t.total

(* Merge per-system entry lists (one profiled engine each) into one
   table, summing by label. *)
let merge lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun e ->
         match Hashtbl.find_opt tbl e.e_label with
         | None -> Hashtbl.replace tbl e.e_label e
         | Some prev ->
             Hashtbl.replace tbl e.e_label
               {
                 e with
                 e_events = prev.e_events + e.e_events;
                 e_minor_words = prev.e_minor_words +. e.e_minor_words;
                 e_major_words = prev.e_major_words +. e.e_major_words;
                 e_wall_samples = prev.e_wall_samples + e.e_wall_samples;
                 e_wall_s = prev.e_wall_s +. e.e_wall_s;
               }))
    lists;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.e_events a.e_events with
         | 0 -> compare a.e_label b.e_label
         | c -> c)

(* ------------------------------------------------------------------ *)
(* JSON export.                                                         *)

let entry_json ~sample_every e =
  Json.Obj
    [
      ("label", Json.String e.e_label);
      ("events", Json.Int e.e_events);
      ("minor_words", Json.Float e.e_minor_words);
      ("major_words", Json.Float e.e_major_words);
      ("words_per_event", Json.Float (words_per_event e));
      ("wall_samples", Json.Int e.e_wall_samples);
      ( "wall_est_us",
        Json.Float (e.e_wall_s *. float_of_int sample_every *. 1e6) );
    ]

let entries_to_json ?(noise_events = 0) ?(noise_words = 0.0) ~sample_every
    ~total_events es =
  let attributed =
    List.fold_left
      (fun acc e -> if e.e_label = "other" then acc else acc + e.e_events)
      0 es
  in
  let coverage =
    if total_events = 0 then 100.0
    else 100.0 *. float_of_int attributed /. float_of_int total_events
  in
  Json.Obj
    [
      ("sample_every", Json.Int sample_every);
      ("total_events", Json.Int total_events);
      ("attributed_events", Json.Int attributed);
      ("coverage_pct", Json.Float coverage);
      ("gc_noise_events", Json.Int noise_events);
      ("gc_noise_words", Json.Float noise_words);
      ("labels", Json.List (List.map (entry_json ~sample_every) es));
    ]

let to_json t =
  entries_to_json ~noise_events:t.noise_events ~noise_words:t.noise_words
    ~sample_every:t.sample_every ~total_events:t.total (entries t)

(* ------------------------------------------------------------------ *)
(* Folded-stack export (Brendan Gregg's flamegraph format): one line
   per label, frames separated by ';', then a space and an integer
   weight — loadable by speedscope and flamegraph.pl. Weights are the
   scaled wall-clock estimate in microseconds when any wall samples
   exist, else exact event counts (short runs where no event hit the
   sampling grid still produce a meaningful graph). Zero-weight lines
   are omitted; lines are sorted by label so the output is stable. *)

let folded_of_entries ~sample_every es =
  let have_wall = List.exists (fun e -> e.e_wall_samples > 0) es in
  let weight e =
    if have_wall then
      int_of_float (e.e_wall_s *. float_of_int sample_every *. 1e6)
    else e.e_events
  in
  let lines =
    List.filter_map
      (fun e ->
        let w = weight e in
        if w <= 0 then None
        else
          Some
            (Fmt.str "%s %d"
               (String.concat ";" (String.split_on_char '/' e.e_label))
               w))
      es
  in
  String.concat "\n" (List.sort compare lines) ^ "\n"

let folded t = folded_of_entries ~sample_every:t.sample_every (entries t)

(* ------------------------------------------------------------------ *)
(* Text reporter: the top-N hot-path table.                             *)

let pp_top ?(n = 12) ppf t =
  match entries t with
  | [] -> ()
  | es ->
      let shown = List.filteri (fun i _ -> i < n) es in
      Fmt.pf ppf "  hot paths (top %d of %d labels, %d events, %.1f%% attributed):@."
        (List.length shown) (List.length es) t.total (coverage_pct t);
      Fmt.pf ppf "    %-44s %10s %10s %9s %11s@." "label" "events"
        "words/ev" "samples" "wall_est_ms";
      List.iter
        (fun e ->
          Fmt.pf ppf "    %-44s %10d %10.1f %9d %11.2f@." e.e_label
            e.e_events (words_per_event e) e.e_wall_samples
            (e.e_wall_s *. float_of_int t.sample_every *. 1e3))
        shown
