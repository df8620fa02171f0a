(** Geo-distributed deployment topology with the paper's EC2 regions and
    inter-region round-trip times (§8: 26–202 ms; Virginia–California
    61 ms). *)

type region = Virginia | California | Frankfurt | Ireland | Brazil


type t

(** [create regions] builds a deployment with one data center per listed
    region. [intra_dc_us] is the one-way latency between machines of the
    same data center; [jitter_us] bounds the uniform per-message jitter. *)
val create : ?intra_dc_us:int -> ?jitter_us:int -> region array -> t

val dcs : t -> int
val region : t -> int -> region
val region_of_dc : t -> int -> string

(** One-way latency in microseconds between two data centers (between two
    machines of the same DC when [src = dst]). *)
val one_way : t -> src:int -> dst:int -> int

val jitter_us : t -> int

(** Worst-case round trip across the deployment: twice the largest
    one-way latency of any DC pair plus twice the jitter bound. The
    basis for deriving timeout bounds (RTO cap, reclaim debounce) from
    the deployment instead of hard-coding them. *)
val max_rtt_us : t -> int

(** The paper's deployments: §8.1–8.2 use \{Virginia, California,
    Frankfurt\}; §8.3 grows to Ireland then Brazil. *)
val three_dcs : unit -> t

val four_dcs : unit -> t
val five_dcs : unit -> t

(** First [n] data centers in the paper's growth order. *)
val n_dcs : int -> t

val pp : t Fmt.t
