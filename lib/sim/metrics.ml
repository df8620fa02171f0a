(* Per-run metrics registry: labelled counters, gauges and log-bucketed
   streaming histograms.

   Unlike [Stats.sample_set] (raw storage, exact percentiles, unbounded
   memory), a [histogram] holds a fixed number of geometric buckets —
   8 sub-buckets per octave, so any estimate is within ~9% of the exact
   value — which lets long runs record millions of observations in a few
   hundred words. Components hold handles ([counter]/[gauge]/[histogram]
   return the same object for the same name + labels), so the hot path
   is an increment, not a table lookup.

   A snapshot is deterministic (sorted by name, then labels) and renders
   to JSON for the bench harness's machine-readable artefacts. *)

type labels = (string * string) list

type counter = { mutable c_value : int }

type gauge = {
  mutable g_value : float;
  mutable g_max : float;
  mutable g_set : bool;  (* distinguishes "never set" from 0 *)
}

(* Sub-buckets per octave: bucket i covers [2^(i/8), 2^((i+1)/8)). *)
let subs = 8

type histogram = {
  mutable buckets : int array;  (* grows on demand, bounded by 8*62 *)
  mutable h_zero : int;  (* observations <= 0 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : int;
  mutable h_max : int;
}

type t = {
  counters : (string * labels, counter) Hashtbl.t;
  gauges : (string * labels, gauge) Hashtbl.t;
  histograms : (string * labels, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
  }

(* Canonical label order makes (name, labels) a stable identity. *)
let canon labels = List.sort compare labels

let intern tbl make ?(labels = []) name =
  let key = (name, canon labels) in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl key v;
      v

(* --- counters ------------------------------------------------------ *)

let counter t ?labels name =
  intern t.counters (fun () -> { c_value = 0 }) ?labels name

let add c n = c.c_value <- c.c_value + n
let incr c = add c 1
let counter_value c = c.c_value

(* --- gauges -------------------------------------------------------- *)

let gauge t ?labels name =
  intern t.gauges
    (fun () -> { g_value = 0.0; g_max = 0.0; g_set = false })
    ?labels name

let set g v =
  g.g_value <- v;
  if (not g.g_set) || v > g.g_max then g.g_max <- v;
  g.g_set <- true

(* Delta update for gauges tracking a level (queue depths, backlogs). *)
let gauge_add g d = set g (g.g_value +. d)

let gauge_value g = g.g_value
let gauge_max g = g.g_max

(* --- histograms ---------------------------------------------------- *)

let histogram t ?labels name =
  intern t.histograms
    (fun () ->
      {
        buckets = Array.make 64 0;
        h_zero = 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = max_int;
        h_max = min_int;
      })
    ?labels name

let bucket_of v =
  (* v >= 1 *)
  int_of_float (float_of_int subs *. Float.log2 (float_of_int v))

(* Bucket bounds, exposed for tests: bucket i covers [lower, upper). *)
let bucket_bounds i =
  let lower = Float.pow 2.0 (float_of_int i /. float_of_int subs) in
  let upper = Float.pow 2.0 (float_of_int (i + 1) /. float_of_int subs) in
  (lower, upper)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. float_of_int v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  if v <= 0 then h.h_zero <- h.h_zero + 1
  else begin
    let i = bucket_of v in
    if i >= Array.length h.buckets then begin
      let bigger = Array.make (max (i + 1) (2 * Array.length h.buckets)) 0 in
      Array.blit h.buckets 0 bigger 0 (Array.length h.buckets);
      h.buckets <- bigger
    end;
    h.buckets.(i) <- h.buckets.(i) + 1
  end

let h_count h = h.h_count
let h_sum h = h.h_sum
let h_mean h = if h.h_count = 0 then None else Some (h.h_sum /. float_of_int h.h_count)
let h_min h = if h.h_count = 0 then None else Some h.h_min
let h_max h = if h.h_count = 0 then None else Some h.h_max

(* Percentile estimate: find the bucket holding the target rank and
   interpolate geometrically inside it; exact tracked min/max clamp the
   tails, so p0/p100 are exact and interior estimates are within one
   bucket width (~9%). *)
let h_percentile h p =
  if h.h_count = 0 then None
  else if p <= 0.0 then Some (float_of_int h.h_min)
  else if p >= 100.0 then Some (float_of_int h.h_max)
  else begin
    let target = p /. 100.0 *. float_of_int h.h_count in
    if float_of_int h.h_zero >= target then Some (float_of_int (max 0 h.h_min))
    else begin
      let cum = ref (float_of_int h.h_zero) in
      let result = ref (float_of_int h.h_max) in
      (try
         for i = 0 to Array.length h.buckets - 1 do
           let c = h.buckets.(i) in
           if c > 0 then begin
             if !cum +. float_of_int c >= target then begin
               let frac = (target -. !cum) /. float_of_int c in
               let lower, upper = bucket_bounds i in
               result := lower *. Float.pow (upper /. lower) frac;
               raise Exit
             end;
             cum := !cum +. float_of_int c
           end
         done
       with Exit -> ());
      Some
        (Float.min (float_of_int h.h_max)
           (Float.max (float_of_int h.h_min) !result))
    end
  end

(* Non-empty buckets as (index, lower bound, upper bound, count). *)
let h_buckets h =
  let out = ref [] in
  for i = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then begin
      let lower, upper = bucket_bounds i in
      out := (i, lower, upper, h.buckets.(i)) :: !out
    end
  done;
  if h.h_zero > 0 then (-1, 0.0, 1.0, h.h_zero) :: !out else !out

(* --- lookup across label sets -------------------------------------- *)

let sorted_fold tbl name =
  Hashtbl.fold
    (fun (n, labels) v acc -> if n = name then (labels, v) :: acc else acc)
    tbl []
  |> List.sort compare

let histograms_matching t name = sorted_fold t.histograms name
let counters_matching t name = sorted_fold t.counters name
let gauges_matching t name = sorted_fold t.gauges name

(* --- snapshot ------------------------------------------------------ *)

type snapshot_entry =
  | S_counter of { name : string; labels : labels; value : int }
  | S_gauge of { name : string; labels : labels; value : float; max : float }
  | S_histogram of {
      name : string;
      labels : labels;
      count : int;
      mean : float;
      p50 : float;
      p90 : float;
      p99 : float;
      min : int;
      max : int;
    }

let snapshot t =
  let sorted tbl f =
    Hashtbl.fold (fun (name, labels) v acc -> (name, labels, v) :: acc) tbl []
    |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
    |> List.map f
  in
  let counters =
    sorted t.counters (fun (name, labels, c) ->
        S_counter { name; labels; value = c.c_value })
  in
  let gauges =
    sorted t.gauges (fun (name, labels, g) ->
        S_gauge { name; labels; value = g.g_value; max = g.g_max })
  in
  let histograms =
    sorted t.histograms (fun (name, labels, h) ->
        let pick f = Option.value ~default:0.0 f in
        S_histogram
          {
            name;
            labels;
            count = h.h_count;
            mean = pick (h_mean h);
            p50 = pick (h_percentile h 50.0);
            p90 = pick (h_percentile h 90.0);
            p99 = pick (h_percentile h 99.0);
            min = (if h.h_count = 0 then 0 else h.h_min);
            max = (if h.h_count = 0 then 0 else h.h_max);
          })
  in
  counters @ gauges @ histograms

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let entry_json = function
  | S_counter { name; labels; value } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("labels", labels_json labels);
          ("value", Json.Int value);
        ]
  | S_gauge { name; labels; value; max } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("labels", labels_json labels);
          ("value", Json.Float value);
          ("max", Json.Float max);
        ]
  | S_histogram { name; labels; count; mean; p50; p90; p99; min; max } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("labels", labels_json labels);
          ("count", Json.Int count);
          ("mean", Json.Float mean);
          ("p50", Json.Float p50);
          ("p90", Json.Float p90);
          ("p99", Json.Float p99);
          ("min", Json.Int min);
          ("max", Json.Int max);
        ]

let to_json t =
  let part f =
    List.filter_map (fun e -> if f e then Some (entry_json e) else None)
      (snapshot t)
  in
  Json.Obj
    [
      ("counters", Json.List (part (function S_counter _ -> true | _ -> false)));
      ("gauges", Json.List (part (function S_gauge _ -> true | _ -> false)));
      ( "histograms",
        Json.List (part (function S_histogram _ -> true | _ -> false)) );
    ]

let pp_labels ppf labels =
  if labels <> [] then
    Fmt.pf ppf "{%a}"
      Fmt.(list ~sep:comma (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
      labels

let pp ppf t =
  List.iter
    (function
      | S_counter { name; labels; value } ->
          Fmt.pf ppf "%s%a %d@." name pp_labels labels value
      | S_gauge { name; labels; value; max } ->
          Fmt.pf ppf "%s%a %.1f (max %.1f)@." name pp_labels labels value max
      | S_histogram { name; labels; count; mean; p50; p90; p99; _ } ->
          Fmt.pf ppf "%s%a n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f@." name
            pp_labels labels count mean p50 p90 p99)
    (snapshot t)
