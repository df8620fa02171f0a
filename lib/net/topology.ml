(* Geo-distributed deployment topology.

   The paper evaluates on EC2 across five regions: Virginia (US-East),
   California (US-West), Frankfurt, Ireland and Brazil, with RTTs ranging
   from 26 ms to 202 ms (§8). The matrix below reproduces those RTTs; the
   figures the paper quotes directly (Virginia–California 61 ms; the
   min 26 ms and max 202 ms) are kept exact, the others are standard EC2
   inter-region measurements from the same era. *)

type region = Virginia | California | Frankfurt | Ireland | Brazil

let region_name = function
  | Virginia -> "virginia"
  | California -> "california"
  | Frankfurt -> "frankfurt"
  | Ireland -> "ireland"
  | Brazil -> "brazil"

let region_index = function
  | Virginia -> 0
  | California -> 1
  | Frankfurt -> 2
  | Ireland -> 3
  | Brazil -> 4

(* Full-mesh RTTs in milliseconds between the five regions. *)
let rtt_ms_matrix =
  [|
    (*            Va     Ca     Fra    Ire    Br  *)
    (* Va  *) [| 0.6; 61.0; 88.0; 75.0; 120.0 |];
    (* Ca  *) [| 61.0; 0.6; 145.0; 135.0; 195.0 |];
    (* Fra *) [| 88.0; 145.0; 0.6; 26.0; 202.0 |];
    (* Ire *) [| 75.0; 135.0; 26.0; 0.6; 180.0 |];
    (* Br  *) [| 120.0; 195.0; 202.0; 180.0; 0.6 |];
  |]

type t = {
  regions : region array;  (* regions.(dc) is the region of data center dc *)
  one_way_us : int array array;  (* one-way latency between DCs, microseconds *)
  intra_dc_us : int;  (* one-way latency between machines of the same DC *)
  jitter_us : int;  (* max uniform jitter added per message *)
}

let dcs t = Array.length t.regions
let region t dc = t.regions.(dc)
let region_of_dc t dc = region_name t.regions.(dc)

(* One-way latency in microseconds between two data centers. *)
let one_way t ~src ~dst =
  if src = dst then t.intra_dc_us else t.one_way_us.(src).(dst)

let jitter_us t = t.jitter_us

(* Worst-case round-trip time across the deployment, jitter included:
   the largest one-way latency of any ordered DC pair, doubled, plus the
   maximum jitter a message can pick up in each direction. Used to derive
   timeout bounds (retransmission caps, leadership-bid debounces) from
   the deployment instead of hard-coding them. *)
let max_rtt_us t =
  let worst = ref t.intra_dc_us in
  let n = dcs t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      worst := max !worst (one_way t ~src ~dst)
    done
  done;
  (2 * !worst) + (2 * t.jitter_us)

let create ?(intra_dc_us = 100) ?(jitter_us = 50) regions =
  let n = Array.length regions in
  if n = 0 then invalid_arg "Topology.create: no data centers";
  let one_way_us =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let ri = region_index regions.(i)
            and rj = region_index regions.(j) in
            int_of_float (rtt_ms_matrix.(ri).(rj) /. 2.0 *. 1000.0)))
  in
  { regions = Array.copy regions; one_way_us; intra_dc_us; jitter_us }

(* Deployments used by the paper's experiments. *)
let three_dcs () = create [| Virginia; California; Frankfurt |]
let four_dcs () = create [| Virginia; California; Frankfurt; Brazil |]

let five_dcs () =
  create [| Virginia; California; Frankfurt; Ireland; Brazil |]

let n_dcs n =
  if n < 1 || n > 5 then invalid_arg "Topology.n_dcs: 1..5 regions available";
  (* Growth order follows §8.3: start from {Va, Ca, Fra}, then add
     Ireland, then Brazil. *)
  let order = [| Virginia; California; Frankfurt; Ireland; Brazil |] in
  create (Array.sub order 0 n)

let pp ppf t =
  Fmt.pf ppf "@[<v>topology (%d DCs):@," (dcs t);
  Array.iteri
    (fun i r -> Fmt.pf ppf "  dc%d = %s@," i (region_name r))
    t.regions;
  Fmt.pf ppf "@]"
