(** The FBS protocol engine: FBSSend()/FBSReceive() of Figure 4 with the
    soft-state cache fast paths of Figure 6.

    Layer-independent: consumes attributes + payload bytes, produces wire
    bytes (security flow header followed by the protected body).  There is
    one send pipeline and one receive pipeline:

    - {!send} classifies and then runs the pipeline; {!send_flow} enters
      it with a flow the caller has already classified (the sharded
      dispatcher), optionally with the flow entry too (the Section 7.2
      combined fast path).
    - {!receive} runs the receive pipeline over a borrowed wire slice.

    Each takes an optional batch ({!Batch}, {!Batch_rx}): the batched and
    inline cases differ only at the body step, where a batchable body is
    queued for a cross-flow kernel pass instead of transformed in place.
    Keying may suspend on a certificate fetch, so the pipelines are
    continuation-passing; {!send_sync}/{!receive_sync} serve callers whose
    resolver completes inline. *)

type error =
  | Header_error of Header.error
  | Stale of { timestamp : int; now_minutes : int }
  | Duplicate
  | Keying_error of Keying.error
  | Bad_mac
  | Decrypt_error

val pp_error : Format.formatter -> error -> unit

type counters = Armor.counters = {
  mutable sends : int;
  mutable receives : int;
  mutable accepted : int;
  mutable flow_key_computations : int;
  mutable flow_key_recoveries : int;
      (** Of the computations, those for a key the cache had seen before:
          recomputation after eviction/invalidation — soft-state recovery,
          never a hidden hard failure. *)
  mutable macs_computed : int;
  mutable encryptions : int;
  mutable decryptions : int;
  mutable errors_header : int;  (** undecodable header or suite mismatch *)
  mutable errors_stale : int;  (** timestamp outside the freshness window *)
  mutable errors_duplicate : int;  (** strict-mode duplicate suppression *)
  mutable errors_keying : int;  (** certificate fetch / verification failed *)
  mutable errors_mac : int;  (** MAC verification failed *)
  mutable errors_decrypt : int;  (** ciphertext would not decrypt *)
  mutable bytes_copied : int;
      (** Payload bytes moved between buffers beyond the single mandatory
          write into the wire (or plaintext) buffer — the zero-copy
          datapath keeps this near zero for secret CBC traffic. *)
  mutable datapath_allocs : int;
      (** Buffers allocated on the seal/receive datapath: one per sealed
          datagram (the wire buffer), one per received secret datagram
          (the plaintext). *)
  mutable keysched_hits : int;
      (** Cipher/MAC key-schedule reuses from a flow entry (TFKC/RFKC or
          the seal memo) — the expansion was skipped. *)
  mutable keysched_misses : int;
      (** Key-schedule expansions paid: first use per flow entry, or
          recomputation after eviction. *)
  mutable mac_midstate_hits : int;
      (** Per-datagram MACs resumed from a flow entry's frozen
          precomputation (keyed-prefix hash state, HMAC inner state, or
          CBC-MAC schedule) — the key absorption was skipped. *)
  mutable mac_midstate_misses : int;
      (** MAC midstates built and cached: first MAC per flow entry, or
          recomputation after eviction. *)
  mutable rx_batch_deferred : int;
      (** Received datagrams whose body open was deferred into a
          {!Batch_rx} queue (each still pays its one plaintext
          allocation, counted in [datapath_allocs] at enqueue). *)
  mutable rx_batch_flushes : int;
      (** Non-empty {!Batch_rx.flush} passes (one bitsliced kernel sweep
          each). *)
  mutable batch_bitsliced_blocks : int;
      (** Cipher blocks that {!Batch.flush} and {!Batch_rx.flush} ran
          through the bitsliced kernel (the rest of a flush's blocks took
          the scalar fallback). *)
}

val drops_by_cause : counters -> (string * int) list
(** Receive-side rejections as [(cause, count)] pairs, one per
    [errors_*] counter, in a fixed order. *)

val drops : counters -> int
(** Total receive-side rejections (sum of {!drops_by_cause}). *)

type t

val create :
  ?suite:Suite.t ->
  ?tfkc_sets:int ->
  ?rfkc_sets:int ->
  ?cache_assoc:int ->
  ?replay_window_minutes:int ->
  ?strict_replay:bool ->
  ?confounder_seed:int ->
  ?trace:Fbsr_util.Trace.t ->
  ?spans:Fbsr_util.Span.t ->
  ?flowstats:Flowstats.t ->
  keying:Keying.t ->
  fam:Fam.t ->
  unit ->
  t
(** [trace] (default disabled) receives structured events from the engine
    and its caches: ["fbs.engine.flow.setup"] per fresh flow,
    ["fbs.engine.key.derive"] per flow-key computation (with a [recovered]
    flag for post-eviction recomputation), ["fbs.engine.replay.reject"]
    per stale/duplicate rejection, and ["fbs.cache.evict"] per eviction.

    [spans] (default disabled) receives per-datagram causal spans.  Each
    {!send} or {!send_flow} opens a fresh trace id in the
    {!Fbsr_util.Span} sidecar context and records ["fam.classify"]
    ({!send} only), ["keying.derive"] (with TFKC/RFKC hit-or-miss and
    MKC/PVC/fetch attribution; absent when {!send_flow} is given the
    entry) and ["engine.seal"]; each {!receive} records ["replay.check"] and a
    terminal ["engine.receive"] span whose outcome is ["delivered"] or
    ["drop:<cause>"] with causes mirroring {!drops_by_cause} (a send-side
    keying failure terminates as ["engine.send"]/["drop:keying"]).  With
    spans disabled the datapath pays one branch per stage and allocates
    nothing. *)

val local : t -> Principal.t
val suite : t -> Suite.t

val armor : t -> Armor.armor
(** The suite's registered driver — everything algorithm-specific the
    engine delegates to ({!Armor.S}). *)

val fam : t -> Fam.t
val keying : t -> Keying.t
type flow_entry
(** A TFKC/RFKC entry: the derived flow key plus lazily-expanded cipher
    and MAC key schedules.  The schedules share the entry's lifetime —
    cache eviction or invalidation drops key material and schedules
    together ([fbs.engine.keysched.{hits,misses}] observe the reuse).
    The Section 7.2 fast path holds entries from {!derive_flow_key} in
    its own table on the same terms. *)

val flow_entry_key : flow_entry -> string
(** The flow key the entry caches schedules for. *)

val tfkc : t -> (int64 * string * string, flow_entry) Cache.t
val rfkc : t -> (int64 * string * string, flow_entry) Cache.t
val replay : t -> Replay.t
val counters : t -> counters

val spans : t -> Fbsr_util.Span.t
(** The engine's span recorder ({!Fbsr_util.Span.none} when disabled). *)

val flowstats : t -> Flowstats.t
(** Per-flow heavy-hitter attribution ({!Flowstats.none} when disabled).
    The seal paths observe one datagram and [payload] bytes per sealed
    datagram under the flow's sfl; receive-side drop verdicts that carry
    an sfl (everything but header-decode failures) observe one drop; a
    post-eviction flow-key recomputation observes one degradation. *)

val register_metrics : t -> Fbsr_util.Metrics.t -> unit
(** Register the engine's whole [fbs.*] subtree on [m]: its counters under
    [fbs.engine.] (drop causes as [fbs.engine.drops.<cause>]), all five
    cache levels under [fbs.cache.{tfkc,rfkc,inbound,pvc,mkc}.], replay
    under [fbs.replay.], FAM under [fbs.fam.] and keying under
    [fbs.keying.].  All pull-probes — zero cost on the protocol paths.
    Pass [Metrics.sub m "host.<addr>"] for a per-host view; registering
    several engines on one registry sums them. *)

(** Cross-flow seal batching: the feed for the bitsliced DES kernel.

    CBC serializes cipher blocks within a flow but not across flows, so
    secret DES-CBC sends given a batch ({!send}/{!send_flow} [?batch])
    defer their body encryption: each datagram is fully assembled
    (header, MAC, reserved body region) and its pending CBC chain queued;
    {!Batch.flush} advances all queued chains in lockstep through
    {!Fbsr_crypto.Des_bitslice} and only then fires the senders'
    continuations, so a caller never observes a half-sealed datagram.
    Results are byte-identical to the unbatched send, datagram for
    datagram.  Every other send given a batch (non-secret, or a suite
    without a batched kernel) seals and delivers inline.

    A queue drains on three triggers: the enqueue that fills it to
    [capacity], an explicit {!Batch.flush}, or {!Batch.tick} past
    [linger].  A caller that drives flushes from an event loop arms them
    from {!Batch.set_on_park}: the IP stack ([Fbsr_fbs_ip.Stack]) sends
    every datagram through its host's batch and flushes a partial one at
    the same simulated instant, so its wires leave in enqueue order with
    no added delay. *)
module Batch : sig
  type batch
  (** A pending-seal queue bound to one engine. *)

  val create :
    ?threshold:int -> ?capacity:int -> ?linger:float -> t -> batch
  (** [threshold] (default 24): minimum jobs per kernel group to take
      the bitsliced path; smaller flushes run scalar (identical bytes).
      [capacity] (default {!Fbsr_crypto.Des_bitslice.lanes}): enqueue
      auto-flushes when the queue reaches this size.  [linger] (default
      1 ms): {!tick} flushes a partial batch older than this. *)

  val set_on_park : batch -> (unit -> unit) -> unit
  (** [set_on_park b f] installs [f] to run after every enqueue that
      leaves a datagram parked (i.e. that did not trigger a capacity
      flush).  A send whose keying suspended enqueues {e later}, from
      the resumed continuation's event — after {!send} has returned — so
      a caller that arms its flush only when it observes {!pending} grow
      synchronously would park such a datagram forever.  Arm the flush
      here instead; the hook runs in the event that performed the
      enqueue. *)

  val pending : batch -> int
  (** Datagrams currently queued. *)

  val flush : batch -> int * int
  (** Run every queued chain and deliver the completed wires in enqueue
      order (each under its datagram's captured trace id; the deferred
      ["engine.seal"] span finishes here, covering queue residence).
      Returns the kernel's [(bitsliced_blocks, scalar_blocks)] split —
      [(0, 0)] when the queue was empty. *)

  val tick : batch -> now:float -> (int * int) option
  (** Flush iff the oldest queued datagram has waited at least [linger];
      [Some counts] when a flush ran.  Call from the event loop. *)
end

(** Cross-flow receive batching: the decrypt-side mirror of {!Batch},
    built on the same queue skeleton.

    CBC decryption has no cross-block dependency at all, so secret
    DES-CBC receives given a batch ({!receive} [?batch]) defer their
    body open: the receive prologue (header decode, suite enforcement,
    replay check — which registers the frame — and the RFKC probe) runs
    at enqueue in arrival order, so every early-refusal verdict, replay
    registration and drop counter is identical to the inline receive,
    frame for frame.  {!Batch_rx.flush} then advances all queued opens in
    lockstep through {!Fbsr_crypto.Des_bitslice}, verifies each frame's
    MAC over the completed plaintext and delivers verdicts in enqueue
    order — so per-flow delivery order is preserved and a caller never
    observes a half-opened datagram.  Accept/drop verdicts and payload
    bytes are identical to the inline receive, frame for frame. *)
module Batch_rx : sig
  type batch
  (** A pending-open queue bound to one engine. *)

  val create :
    ?threshold:int -> ?capacity:int -> ?linger:float -> t -> batch
  (** As {!Batch.create}: [threshold] (default 24) minimum jobs per kernel
      group for the cross-flow bitsliced path, smaller flushes run each
      job on the per-datagram kernel (identical bytes); [capacity]
      (default {!Fbsr_crypto.Des_bitslice.lanes}) auto-flush size;
      [linger] (default 1 ms) {!tick}'s age limit. *)

  val set_on_park : batch -> (unit -> unit) -> unit
  (** As {!Batch.set_on_park}: [f] runs after every enqueue that leaves
      a frame parked, including the late enqueue of a frame whose
      receive-side keying suspended. *)

  val pending : batch -> int
  (** Frames currently queued.  A queued frame's plaintext string (the
      one {!Armor.batch_rx_ops.defer_open} returned) is not yet stable:
      its bytes are written by the kernel pass inside {!flush}.  Nothing
      may read, hash or compare a deferred payload until the flush that
      delivers it has run. *)

  val flush : batch -> int * int
  (** Run every queued open, then verify and deliver in enqueue order
      (each under its datagram's captured trace id; the terminal
      ["engine.receive"] span finishes here, covering queue residence).
      Returns the kernel's [(bitsliced_blocks, scalar_blocks)] split —
      [(0, 0)] when the queue was empty. *)

  val tick : batch -> now:float -> (int * int) option
  (** Flush iff the oldest queued frame has waited at least [linger];
      [Some counts] when a flush ran.  Call from the event loop. *)
end

val send :
  ?batch:Batch.batch ->
  t ->
  now:float ->
  attrs:Fam.attrs ->
  secret:bool ->
  payload:string ->
  ((string, error) result -> unit) ->
  unit
(** FBSSend(): classify into a flow, find the flow entry in the TFKC
    (deriving the flow key on a miss), MAC, optionally encrypt; the
    continuation receives the wire bytes.

    With [batch], a deferrable datagram (secret, DES-CBC suite) has its
    body encryption queued and the continuation fires from
    {!Batch.flush} — immediately when this enqueue fills the batch, else
    at a later [flush]/[tick]; everything else seals and delivers
    inline.  Wire bytes, counters, spans and trace events are the same
    either way, datagram for datagram (the encryption is counted at
    enqueue; the seal span finishes at flush).
    @raise Invalid_argument if [batch] belongs to another engine. *)

val send_flow :
  ?confounder:int ->
  ?batch:Batch.batch ->
  ?entry:flow_entry ->
  t ->
  now:float ->
  sfl:Sfl.t ->
  src:Principal.t ->
  dst:Principal.t ->
  secret:bool ->
  payload:string ->
  ((string, error) result -> unit) ->
  unit
(** {!send} for a datagram the caller has already classified: the
    sharded dispatcher ({!Sharded}), where the sfl must be known before
    a shard can be chosen, and the Section 7.2 combined FST+TFKC fast
    path, whose one table probe yields the sfl and the flow entry
    together.  Skips classification (and its span/trace events).
    [entry] (from {!derive_flow_key}) also skips the TFKC: the datagram
    goes straight to steps S4-S10 with the entry's cached schedules and
    MAC midstate.  [confounder] overrides the engine's own generator so
    a dispatcher can draw confounders in input order, making sharded
    wire output byte-identical to a single engine's; it applies to
    batched sends too.  [batch] as for {!send}. *)

val derive_flow_key :
  t ->
  sfl:Sfl.t ->
  src:Principal.t ->
  dst:Principal.t ->
  ((flow_entry, error) result -> unit) ->
  unit
(** Flow-key derivation without consulting the TFKC (combined-path
    miss).  The caller keeps the entry and hands it to {!send_flow}; the
    entry's schedules are expanded on first use and reused for as long
    as the caller keeps it. *)

type accepted = { header : Header.t; payload : string; peer : Principal.t }

val receive :
  ?batch:Batch_rx.batch ->
  t ->
  now:float ->
  src:Principal.t ->
  wire:Fbsr_util.Slice.t ->
  ((accepted, error) result -> unit) ->
  unit
(** FBSReceive(), zero-copy: parses the header as a borrowed view,
    verifies the MAC against the wire bytes in place, and allocates only
    the plaintext of an accepted secret datagram (plus the payload copy
    of an accepted non-secret one).  [accepted] owns its bytes.

    Without [batch] the verdict is delivered before a non-suspending
    call returns, and the slice is only borrowed for the call.  With
    [batch], a deferrable frame (secret, encrypting armor with a batched
    decrypt kernel — DES-CBC suites) has its body open queued and the
    continuation fires from {!Batch_rx.flush} — immediately when this
    enqueue fills the batch, else at a later [flush]/[tick]; the slice's
    bytes are borrowed by the queue until that flush.  When the keying
    layer suspends (cold flow), the enqueue itself happens in the
    resumed continuation's event — use {!Batch_rx.set_on_park} to learn
    of it.  Everything else — prologue refusals, non-secret bodies, NOP
    and non-DES-CBC suites, frames whose ciphertext is rejected up front
    (bad length, corrupt padding) — resolves inline, counter for
    counter.
    @raise Invalid_argument if [batch] belongs to another engine. *)

val send_sync :
  t -> now:float -> attrs:Fam.attrs -> secret:bool -> payload:string ->
  (string, error) result
(** {!send}, for callers whose keying resolver completes inline.
    @raise Invalid_argument if the resolver suspends. *)

val receive_sync :
  t -> now:float -> src:Principal.t -> wire:string -> (accepted, error) result
(** {!receive} over a whole string, for callers whose keying resolver
    completes inline.
    @raise Invalid_argument if the resolver suspends. *)

val header_overhead : t -> int
(** Bytes the FBS header adds to every datagram. *)

val max_body_growth : t -> int
(** Worst-case padding growth of an encrypted body. *)

val wire_overhead : t -> int
(** [header_overhead + max_body_growth]: what the MSS calculation must
    subtract (the tcp_output fix). *)

(** Receive-side flow view: the per-flow statistics the receiver
    accumulates while passively demultiplexing on the sfl.  Soft state,
    bounded by an internal cache. *)
type inbound_flow = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_seen : float;
  mutable last_seen : float;
}

val inbound_flows : t -> (Sfl.t * Principal.t * inbound_flow) list
