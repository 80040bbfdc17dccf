(** The FBS-to-IP mapping (paper Section 7): FBS header between the IPv4
    header and the transport payload, ip_output/ip_input hooks, 5-tuple +
    THRESHOLD flow policy, secure flow bypass, MSS fix, and datagram
    parking across MKD fetches.

    Send path: every datagram the output hook secures goes through the
    stack's one {!Fbsr_fbs.Engine.Batch} — {!Fbsr_fbs.Engine.send} on the
    FAM path, {!Fbsr_fbs.Engine.send_flow} on the [combined_fast_path].
    Secret DES-CBC bodies park there for the cross-flow bitsliced kernel;
    every other send completes inline.  A parked burst is sealed and
    transmitted when the 63rd enqueue fills the batch, or otherwise by
    one flush event at the same simulated instant, armed by the burst's
    first park (and by the late enqueue of a send resumed from an MKD
    fetch).  Either way the wires leave at the instant they were sent, in
    enqueue order: simulated timing is that of sealing each datagram
    inline.  The hooks return {!Fbsr_netsim.Host.Held} for a datagram
    they finish later (batched, or awaiting a master key). *)

open Fbsr_netsim

type config = {
  suite : Fbsr_fbs.Suite.t;
  threshold : float;
  fst_size : int;
  replay_window_minutes : int;
  strict_replay : bool;
  secret_policy : protocol:int -> src_port:int -> dst_port:int -> bool;
  bypass : Addr.t -> bool;
  tfkc_sets : int;
  rfkc_sets : int;
  cache_assoc : int;
  max_flow_bytes : int option;
  max_flow_life : float option;
  keying_fetch_retries : int;
      (** Extra keying-layer attempts after a failed certificate fetch
          (on top of the MKD's own retransmissions). *)
  combined_fast_path : bool;
  encapsulation : [ `Shim | `Ip_option ];
      (** [`Shim]: header between IP header and payload (the paper's
          implementation).  [`Ip_option]: header carried as an IPv4 option
          — workable only while it fits the 40-byte budget. *)
  batched_rx : bool;
      (** Route receive-side body opens through an
          {!Fbsr_fbs.Engine.Batch_rx} queue (default [false]): frames
          arriving within [rx_linger] of each other decrypt in one
          cross-flow bitsliced sweep and are delivered in arrival order
          through the parked-datagram upcall.  Verdicts and bytes are
          identical to the inline path; delivery of a deferrable frame
          lags arrival by at most [rx_linger]. *)
  rx_linger : float;
      (** Max simulated-time queue residence before a forced flush
          (default 1 ms). *)
}

val default_config :
  ?suite:Fbsr_fbs.Suite.t ->
  ?threshold:float ->
  ?fst_size:int ->
  ?replay_window_minutes:int ->
  ?strict_replay:bool ->
  ?secret_policy:(protocol:int -> src_port:int -> dst_port:int -> bool) ->
  ?bypass:(Addr.t -> bool) ->
  ?tfkc_sets:int ->
  ?rfkc_sets:int ->
  ?cache_assoc:int ->
  ?max_flow_bytes:int ->
  ?max_flow_life:float ->
  ?keying_fetch_retries:int ->
  ?combined_fast_path:bool ->
  ?encapsulation:[ `Shim | `Ip_option ] ->
  ?batched_rx:bool ->
  ?rx_linger:float ->
  unit ->
  config

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable suspended_out : int;
  mutable suspended_in : int;
  mutable resumed : int;
  mutable dropped_error : int;
  mutable bypassed : int;
  mutable tx_batched : int;
      (** Datagrams parked in the send batch (every enqueue that did not
          itself fill the batch) and sent from its flush.  Unlike an MKD
          park, a batched send does not count as [resumed]. *)
  mutable rx_batched : int;
      (** Frames parked in the receive batch ([batched_rx] mode) and
          delivered from its flush. *)
}

type t

val install :
  ?config:config ->
  ?sfl_seed:int ->
  ?trace:Fbsr_util.Trace.t ->
  ?spans:Fbsr_util.Span.t ->
  private_value:Fbsr_crypto.Dh.private_value ->
  group:Fbsr_crypto.Dh.group ->
  ca_public:Fbsr_crypto.Rsa.public_key ->
  ca_hash:Fbsr_crypto.Hash.t ->
  resolver:Fbsr_fbs.Keying.resolver ->
  Host.t ->
  t
(** [trace] (default disabled) is threaded to the engine and keying layers
    — see {!Fbsr_fbs.Engine.create}.  [spans] (default disabled) is the
    host's per-datagram flight recorder: threaded to the engine for the
    classify/derive/seal/replay/receive stages, and used directly by the
    input hook for the ["stack.decap"] stage. *)

val uninstall : t -> unit

val engine : t -> Fbsr_fbs.Engine.t
val counters : t -> counters

val tx_batch : t -> Fbsr_fbs.Engine.Batch.batch
(** The stack's send batch.  Every send leaves it empty by the end of the
    simulated instant it was queued in; [Batch.pending] is 0 at
    quiescence. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the stack's counters under [fbs_ip.stack.] and the engine's
    whole [fbs.*] subtree on [m] (see {!Fbsr_fbs.Engine.register_metrics}).
    Pass [Metrics.sub m "host.<addr>"] for a per-host view. *)

val host : t -> Host.t
val policy_state : t -> Fbsr_fbs.Policy_five_tuple.t
val fast_path : t -> Fast_path.t option
val principal_of_addr : Addr.t -> Fbsr_fbs.Principal.t
val peek_ports : protocol:int -> string -> int * int

val start_sweeper : ?period:float -> t -> unit
(** Run Figure 7's standalone sweeper every [period] (default 60 s)
    simulated seconds.  Note: once started it reschedules forever, so
    [Engine.run] without [~until] will not terminate. *)
