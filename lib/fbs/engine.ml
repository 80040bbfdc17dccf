(* FBS protocol processing — FBSSend()/FBSReceive() of Figure 4, with the
   cache fast path of Figure 6.

   The engine is deliberately layer-independent (Section 3): it consumes and
   produces opaque byte strings plus the attributes the FAM policy needs,
   and assumes only an insecure datagram transport underneath.  The IP
   mapping in [Fbsr_fbs_ip] embeds its output between the IPv4 header and
   the transport payload; tests drive it directly.

   One pseudo-code ambiguity resolved: Figure 4 computes the MAC over
   P.body *before* encryption on the send side (S6 precedes S8-9) but shows
   verification *before* decryption on the receive side (R7 precedes
   R10-11).  Both cannot hold with MAC-over-plaintext, so we follow the
   send side — the MAC covers the plaintext body — and the receiver
   decrypts first, then verifies.  DESIGN.md records this choice. *)

type error =
  | Header_error of Header.error
  | Stale of { timestamp : int; now_minutes : int }
  | Duplicate
  | Keying_error of Keying.error
  | Bad_mac
  | Decrypt_error

let pp_error ppf = function
  | Header_error Header.Truncated -> Fmt.string ppf "truncated header"
  | Header_error (Header.Unknown_suite id) -> Fmt.pf ppf "unknown suite %d" id
  | Header_error (Header.Bad_flags f) -> Fmt.pf ppf "reserved flag bits set (%#x)" f
  | Stale { timestamp; now_minutes } ->
      Fmt.pf ppf "stale timestamp %d (now %d)" timestamp now_minutes
  | Duplicate -> Fmt.string ppf "duplicate datagram"
  | Keying_error e -> Keying.pp_error ppf e
  | Bad_mac -> Fmt.string ppf "MAC verification failed"
  | Decrypt_error -> Fmt.string ppf "decryption failed"

(* Drops are counted by cause so graceful degradation is observable: under
   an adversarial network the split between MAC failures (corruption or
   forgery), duplicates (replay), and keying errors (certificate fetch
   lost) tells the operator *why* datagrams are being refused.
   [flow_key_recoveries] counts flow keys recomputed for a key the cache
   had seen before — i.e. successful soft-state recovery after eviction or
   invalidation, never a hidden hard failure.

   The record itself lives in [Armor] (armor instances account their
   work on it directly); re-exported here field for field so existing
   consumers keep reading [c.Engine.sends] etc. unchanged. *)
type counters = Armor.counters = {
  mutable sends : int;
  mutable receives : int;
  mutable accepted : int;
  mutable flow_key_computations : int;
  mutable flow_key_recoveries : int;
  mutable macs_computed : int;
  mutable encryptions : int;
  mutable decryptions : int;
  mutable errors_header : int;
  mutable errors_stale : int;
  mutable errors_duplicate : int;
  mutable errors_keying : int;
  mutable errors_mac : int;
  mutable errors_decrypt : int;
  (* Datapath accounting for the zero-copy refactor: [bytes_copied]
     counts payload bytes moved between buffers (beyond the single
     mandatory write into the wire/plaintext buffer); [datapath_allocs]
     counts buffers allocated per datagram on the seal/receive paths.
     The target steady state is one allocation per sealed datagram and
     one per received secret datagram. *)
  mutable bytes_copied : int;
  mutable datapath_allocs : int;
  (* Key-schedule cache accounting: a hit reuses an expanded cipher/MAC
     schedule stored in the flow entry; a miss pays the expansion (and
     populates the entry).  With the table-driven kernel the expansion
     is a visible fraction of per-datagram cost, so the cache is worth
     observing in its own right. *)
  mutable keysched_hits : int;
  mutable keysched_misses : int;
  (* MAC-midstate cache accounting: a hit resumes the per-flow frozen
     MAC precomputation (keyed-prefix hash state, HMAC inner state, or
     CBC-MAC schedule); a miss builds and caches it.  Split from the
     cipher-schedule counters because the two caches cover different
     suites and evict together but miss independently. *)
  mutable mac_midstate_hits : int;
  mutable mac_midstate_misses : int;
  (* Receive-batch accounting: [rx_batch_deferred] counts receives whose
     body open was parked in a Batch_rx queue (the scalar prologue ran at
     enqueue; decrypt and MAC verify at flush); [rx_batch_flushes] counts
     kernel flushes.  Both stay 0 on the scalar receive path.
     [batch_bitsliced_blocks] counts the cipher blocks either direction's
     batch flushes ran through the bitsliced kernel. *)
  mutable rx_batch_deferred : int;
  mutable rx_batch_flushes : int;
  mutable batch_bitsliced_blocks : int;
}

let drops_by_cause c =
  [
    ("header", c.errors_header);
    ("stale", c.errors_stale);
    ("duplicate", c.errors_duplicate);
    ("keying", c.errors_keying);
    ("mac", c.errors_mac);
    ("decrypt", c.errors_decrypt);
  ]

let drops c = List.fold_left (fun acc (_, n) -> acc + n) 0 (drops_by_cause c)

(* Receive-side demultiplexing record: the receiver "passively
   demultiplexes a datagram, based on its flow assignment, into the
   individual flows" — this is the per-flow view it accumulates.  Soft
   state, bounded by the cache it lives in. *)
type inbound_flow = {
  mutable packets : int;
  mutable bytes : int;
  mutable first_seen : float;
  mutable last_seen : float;
}

(* A TFKC/RFKC entry: the derived flow key plus the expanded key
   schedules for whatever cipher/MAC the suite uses, populated lazily on
   first use.  The schedules are owned by the entry — they share its
   lifetime, so cache eviction or invalidation drops key material and
   schedules together and there is no separate invalidation protocol.
   The record lives in [Armor] so armor instances can stash their own
   per-flow state alongside the shared schedules. *)
type flow_entry = Armor.flow_state

let flow_entry_of_key = Armor.flow_state_of_key
let flow_entry_key (e : flow_entry) = e.Armor.fk

type t = {
  keying : Keying.t;
  fam : Fam.t;
  suite : Suite.t;
  armor : Armor.armor; (* the suite's driver, from the registry *)
  (* Armor-call context: the counters record (shared with [counters]
     below) plus the reusable per-engine scratch for the zero-copy
     datapath (MAC prelude, duplicated-confounder IV).  Scratch is read
     through [Bytes.unsafe_to_string] views consumed before the next
     refill, so no datagram ever observes another's bytes. *)
  actx : Armor.ctx;
  tfkc : (int64 * string * string, flow_entry) Cache.t; (* (sfl, peer, local) *)
  rfkc : (int64 * string * string, flow_entry) Cache.t;
  inbound : (int64 * string, inbound_flow) Cache.t; (* (sfl, peer) *)
  replay : Replay.t;
  confounder_gen : Fbsr_util.Lcg.t;
  counters : counters;
  trace : Fbsr_util.Trace.t;
  spans : Fbsr_util.Span.t;
  (* Per-flow heavy-hitter attribution (sfl-keyed sketches); [Flowstats.none]
     keeps the datapath at one branch per quantity. *)
  flowstats : Flowstats.t;
}

let triple_hash (sfl, peer, local) =
  let open Fbsr_util.Crc32 in
  let h = update_int64 0 sfl in
  let h = update h peer 0 (String.length peer) in
  update h local 0 (String.length local)

let triple_equal (a1, b1, c1) (a2, b2, c2) =
  Int64.equal a1 a2 && String.equal b1 b2 && String.equal c1 c2

let create ?(suite = Suite.paper_md5_des) ?(tfkc_sets = 128) ?(rfkc_sets = 128)
    ?(cache_assoc = 1) ?(replay_window_minutes = 2) ?(strict_replay = false)
    ?(confounder_seed = 0x5eed) ?(trace = Fbsr_util.Trace.none)
    ?(spans = Fbsr_util.Span.none) ?(flowstats = Flowstats.none) ~keying ~fam
    () =
  (* Force the built-in armor manifest before consulting the registry:
     linking semantics drop unreferenced archive members, so the
     instances' registrations must be reachable from here. *)
  Armors.ensure ();
  let counters =
    {
      sends = 0;
      receives = 0;
      accepted = 0;
      flow_key_computations = 0;
      flow_key_recoveries = 0;
      macs_computed = 0;
      encryptions = 0;
      decryptions = 0;
      errors_header = 0;
      errors_stale = 0;
      errors_duplicate = 0;
      errors_keying = 0;
      errors_mac = 0;
      errors_decrypt = 0;
      bytes_copied = 0;
      datapath_allocs = 0;
      keysched_hits = 0;
      keysched_misses = 0;
      mac_midstate_hits = 0;
      mac_midstate_misses = 0;
      rx_batch_deferred = 0;
      rx_batch_flushes = 0;
      batch_bitsliced_blocks = 0;
    }
  in
  {
    keying;
    fam;
    suite;
    armor = Armor.of_suite suite;
    actx = Armor.make_ctx counters;
    tfkc =
      Cache.create ~assoc:cache_assoc ~sets:tfkc_sets ~hash:triple_hash
        ~equal:triple_equal ~name:"tfkc" ~trace ();
    rfkc =
      Cache.create ~assoc:cache_assoc ~sets:rfkc_sets ~hash:triple_hash
        ~equal:triple_equal ~name:"rfkc" ~trace ();
    inbound =
      Cache.create ~assoc:2 ~classify:false ~sets:rfkc_sets
        ~hash:(fun (sfl, peer) ->
          Fbsr_util.Crc32.update (Fbsr_util.Crc32.update_int64 0 sfl) peer 0
            (String.length peer))
        ~equal:(fun (s1, p1) (s2, p2) -> Int64.equal s1 s2 && String.equal p1 p2)
        ~name:"inbound" ~trace ();
    replay = Replay.create ~window_minutes:replay_window_minutes ~strict:strict_replay ();
    confounder_gen = Fbsr_util.Lcg.create confounder_seed;
    trace;
    spans;
    flowstats;
    counters;
  }

let local t = Keying.local t.keying
let suite t = t.suite
let fam t = t.fam
let keying t = t.keying
let tfkc t = t.tfkc
let rfkc t = t.rfkc
let replay t = t.replay
let counters t = t.counters
let spans t = t.spans
let flowstats t = t.flowstats

(* Receive-side drop attribution: called on every drop verdict where the
   sfl made it out of the header (header-decode failures have no flow to
   attribute to). *)
let note_flow_drop t sfl =
  if Flowstats.enabled t.flowstats then
    Fbsr_util.Sketch.observe t.flowstats.Flowstats.drops (Sfl.to_int64 sfl) 1

let note_flow_degraded t sfl =
  if Flowstats.enabled t.flowstats then
    Fbsr_util.Sketch.observe t.flowstats.Flowstats.degraded (Sfl.to_int64 sfl) 1

(* Register the whole fbs.* subtree for this engine: its own counters
   (including drops.<cause>), all five cache levels, replay and FAM
   bookkeeping, and the keying counters.  Names are relative to the
   registry's scope, so the root registry yields "fbs.engine.sends" while
   [Metrics.sub m "host.10.0.0.1"] yields a per-host view; registering
   several engines on one registry sums them (probes accumulate). *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  let e = sub m "fbs.engine" in
  let c = t.counters in
  register_probe e "sends" (fun () -> c.sends);
  register_probe e "receives" (fun () -> c.receives);
  register_probe e "accepted" (fun () -> c.accepted);
  register_probe e "flow_key_computations" (fun () -> c.flow_key_computations);
  register_probe e "flow_key_recoveries" (fun () -> c.flow_key_recoveries);
  register_probe e "macs_computed" (fun () -> c.macs_computed);
  register_probe e "encryptions" (fun () -> c.encryptions);
  register_probe e "decryptions" (fun () -> c.decryptions);
  register_probe e "drops.header" (fun () -> c.errors_header);
  register_probe e "drops.stale" (fun () -> c.errors_stale);
  register_probe e "drops.duplicate" (fun () -> c.errors_duplicate);
  register_probe e "drops.keying" (fun () -> c.errors_keying);
  register_probe e "drops.mac" (fun () -> c.errors_mac);
  register_probe e "drops.decrypt" (fun () -> c.errors_decrypt);
  register_probe e "drops.total" (fun () -> drops c);
  register_probe e "datapath.bytes_copied" (fun () -> c.bytes_copied);
  register_probe e "datapath.allocs" (fun () -> c.datapath_allocs);
  register_probe e "keysched.hits" (fun () -> c.keysched_hits);
  register_probe e "keysched.misses" (fun () -> c.keysched_misses);
  register_probe e "macmid.hits" (fun () -> c.mac_midstate_hits);
  register_probe e "macmid.misses" (fun () -> c.mac_midstate_misses);
  register_probe e "rxbatch.deferred" (fun () -> c.rx_batch_deferred);
  register_probe e "rxbatch.flushes" (fun () -> c.rx_batch_flushes);
  register_probe e "batch.bitsliced_blocks" (fun () -> c.batch_bitsliced_blocks);
  (* Per-datagram views of the same counters: the zero-copy invariant in
     observable form (~1 alloc and ~0 extra copies per datagram).  Ratio
     probes, not float probes: several engines registered under one name
     (the sharded dispatcher's aggregate view, or one engine registered
     at the root and under a scope) must fold the underlying tallies and
     report the true combined ratio, not the sum of per-engine ratios. *)
  let datagrams () = float_of_int (c.sends + c.receives) in
  register_probe_ratio e "datapath.bytes_copied_per_datagram" (fun () ->
      (float_of_int c.bytes_copied, datagrams ()));
  register_probe_ratio e "datapath.allocs_per_datagram" (fun () ->
      (float_of_int c.datapath_allocs, datagrams ()));
  Cache.register_metrics t.tfkc (sub m "fbs.cache.tfkc");
  Cache.register_metrics t.rfkc (sub m "fbs.cache.rfkc");
  Cache.register_metrics t.inbound (sub m "fbs.cache.inbound");
  Cache.register_metrics (Keying.pvc t.keying) (sub m "fbs.cache.pvc");
  Cache.register_metrics (Keying.mkc t.keying) (sub m "fbs.cache.mkc");
  Replay.register_metrics t.replay (sub m "fbs.replay");
  Fam.register_metrics t.fam (sub m "fbs.fam");
  Keying.register_metrics t.keying (sub m "fbs.keying")

(* Snapshot of the inbound flows currently tracked: (sfl, peer, stats). *)
let inbound_flows t =
  Cache.fold t.inbound
    (fun (sfl, peer) flow acc -> (Sfl.of_int64 sfl, Principal.of_string peer, flow) :: acc)
    []

let track_inbound t ~now ~sfl ~peer ~bytes =
  let key = (Sfl.to_int64 sfl, Principal.to_string peer) in
  match Cache.peek t.inbound key with
  | Some flow ->
      flow.packets <- flow.packets + 1;
      flow.bytes <- flow.bytes + bytes;
      flow.last_seen <- now
  | None ->
      Cache.insert t.inbound key
        { packets = 1; bytes; first_seen = now; last_seen = now }

(* Obtain the flow key for (sfl, peer), using the given cache (TFKC on
   send, RFKC on receive).  CPS because the master key may need a
   certificate fetch. *)
(* Span bookkeeping for key derivation: the timer plus the trace id
   captured at stage entry (the continuation may resume in a later
   scheduler event, when the ambient id belongs to someone else). *)
let finish_derive t (tm : (Fbsr_util.Span.timer * int64) option) ~cache ~hit
    ~revisit ~master =
  match tm with
  | None -> ()
  | Some (tm, id) ->
      Fbsr_util.Span.finish t.spans tm ~id "keying.derive"
        ~detail:
          [
            ("cache", Fbsr_util.Json.String cache);
            ("hit", Fbsr_util.Json.Bool hit);
            ("master", Fbsr_util.Json.String master);
            ("recovered", Fbsr_util.Json.Bool revisit);
          ]

let flow_key_via t cache ~sfl ~peer ~src ~dst (k : (flow_entry, error) result -> unit) =
  let key = (Sfl.to_int64 sfl, Principal.to_string peer, Principal.to_string (local t)) in
  (* Captured before [find], which registers the key as seen: a miss on a
     previously-seen key means the entry was evicted or invalidated and we
     are recovering by recomputation — the soft-state guarantee at work. *)
  let revisit = Cache.was_seen cache key in
  let tm =
    if Fbsr_util.Span.enabled t.spans then
      Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.current ())
    else None
  in
  match Cache.find cache key with
  | Some entry ->
      finish_derive t tm ~cache:(Cache.name cache) ~hit:true ~revisit
        ~master:"cached";
      k (Ok entry)
  | None ->
      Keying.get_master t.keying peer (function
        | Error e ->
            finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
              ~master:"error";
            k (Error (Keying_error e))
        | Ok master ->
            t.counters.flow_key_computations <- t.counters.flow_key_computations + 1;
            if revisit then begin
              t.counters.flow_key_recoveries <- t.counters.flow_key_recoveries + 1;
              (* Soft-state degradation: the flow's key material had to be
                 recomputed after eviction — attribute it to the flow. *)
              note_flow_degraded t sfl
            end;
            if Fbsr_util.Trace.enabled t.trace then
              Fbsr_util.Trace.emit t.trace "fbs.engine.key.derive"
                [
                  ("sfl", Fbsr_util.Json.String (Fmt.str "%a" Sfl.pp sfl));
                  ("cache", Fbsr_util.Json.String (Cache.name cache));
                  ("recovered", Fbsr_util.Json.Bool revisit);
                ];
            let fk =
              Keying.flow_key ~hash:t.suite.Suite.kdf_hash ~sfl ~master ~src ~dst
            in
            let entry = flow_entry_of_key fk in
            Cache.insert cache key entry;
            finish_derive t tm ~cache:(Cache.name cache) ~hit:false ~revisit
              ~master:(Keying.last_resolution t.keying);
            k (Ok entry))

(* Flow-key derivation without consulting the TFKC — the combined fast
   path's miss: the caller caches the returned entry in its own table, so
   the entry's schedules and MAC midstate live as long as that slot. *)
let derive_flow_key t ~sfl ~src ~dst (k : (flow_entry, error) result -> unit) =
  Keying.get_master t.keying dst (function
    | Error e -> k (Error (Keying_error e))
    | Ok master ->
        t.counters.flow_key_computations <- t.counters.flow_key_computations + 1;
        k
          (Ok
             (flow_entry_of_key
                (Keying.flow_key ~hash:t.suite.Suite.kdf_hash ~sfl ~master ~src ~dst))))

type accepted = {
  header : Header.t;
  payload : string; (* plaintext body *)
  peer : Principal.t;
}

(* Terminal span of the receive pipeline: exactly one per received
   datagram, carrying the verdict — "delivered" or "drop:<cause>", the
   causes mirroring [drops_by_cause].  A top-level function taking the
   optional timer keeps the disabled path a constant [None] with no
   closure allocation at the exit points. *)
let conclude_receive t (tm : (Fbsr_util.Span.timer * int64) option) outcome =
  match tm with
  | None -> ()
  | Some (stm, id) ->
      Fbsr_util.Span.finish t.spans stm ~id ~outcome "engine.receive"

(* Account one receive-side refusal — its cause counter, the flow's drop
   attribution (header-decode failures carry no flow) and the terminal
   span — and return it as the verdict. *)
let refuse t tm ?sfl e =
  let c = t.counters in
  let outcome =
    match e with
    | Header_error _ ->
        c.errors_header <- c.errors_header + 1;
        "drop:header"
    | Stale _ ->
        c.errors_stale <- c.errors_stale + 1;
        "drop:stale"
    | Duplicate ->
        c.errors_duplicate <- c.errors_duplicate + 1;
        "drop:duplicate"
    | Keying_error _ ->
        c.errors_keying <- c.errors_keying + 1;
        "drop:keying"
    | Bad_mac ->
        c.errors_mac <- c.errors_mac + 1;
        "drop:mac"
    | Decrypt_error ->
        c.errors_decrypt <- c.errors_decrypt + 1;
        "drop:decrypt"
  in
  (match sfl with Some sfl -> note_flow_drop t sfl | None -> ());
  conclude_receive t tm outcome;
  Error e

(* Hand a verdict to its continuation under the datagram's trace id: the
   keying continuation or a batch flush may run in a later event, and an
   acknowledgement sent from the handler opens its own trace, which this
   scope then restores. *)
let deliver_under tm k r =
  match tm with
  | Some (_, id) -> Fbsr_util.Span.with_current id (fun () -> k r)
  | None -> k r

(* R7-R12 once the body is recovered: verify the MAC over the plaintext
   and deliver the verdict.  [plaintext] is either a fresh string the
   verdict hands out as-is ([owned]: a decrypted body), or a view of the
   wire buffer, copied out only on acceptance (the slice must not outlive
   the wire). *)
let verify_and_deliver t tm ~now ~peer ~entry ~(v : Header.view) ~owned
    (plaintext : Fbsr_util.Slice.t) k =
  let module A = (val t.armor : Armor.S) in
  if
    A.verify_mac t.actx entry ~secret:v.Header.v_secret
      ~confounder:v.Header.v_confounder ~timestamp:v.Header.v_timestamp
      ~payload:plaintext ~expected:v.Header.v_mac
  then begin
    t.counters.accepted <- t.counters.accepted + 1;
    track_inbound t ~now ~sfl:v.Header.v_sfl ~peer
      ~bytes:(Fbsr_util.Slice.length plaintext);
    conclude_receive t tm "delivered";
    let payload =
      if owned then plaintext.Fbsr_util.Slice.base
      else begin
        t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
        t.counters.bytes_copied <-
          t.counters.bytes_copied + Fbsr_util.Slice.length plaintext;
        Fbsr_util.Slice.to_string plaintext
      end
    in
    deliver_under tm k (Ok { header = Header.to_header v; payload; peer })
  end
  else deliver_under tm k (refuse t tm ~sfl:v.Header.v_sfl Bad_mac)

(* The queue skeleton of cross-flow batching, shared by [Batch] (deferred
   body seals) and [Batch_rx] (deferred body opens).  CBC serializes
   blocks {e within} a flow but not {e across} flows, so a direction's
   batchable bodies park here; a capacity-filling enqueue, an explicit
   [flush] or a [tick] past [linger] drains them all, in enqueue order,
   into [run] — the direction's kernel pass through
   {!Fbsr_crypto.Des_bitslice} followed by its in-order deliveries, so a
   caller never observes a half-processed datagram. *)
module Pending = struct
  type 'a queue = {
    engine : t;
    threshold : int;
    capacity : int;
    linger : float;
    items : 'a Queue.t;
    mutable oldest : float; (* enqueue time of the head item *)
    mutable on_park : unit -> unit;
        (* fires on every enqueue that leaves the item parked (no
           capacity flush) — including late enqueues from a resumed
           keying continuation, which the original caller cannot observe
           synchronously *)
    run : t -> threshold:int -> 'a array -> int * int;
  }

  let create what ~run ?(threshold = 24)
      ?(capacity = Fbsr_crypto.Des_bitslice.lanes) ?(linger = 0.001) engine =
    if capacity < 1 then invalid_arg ("Engine." ^ what ^ ".create: capacity < 1");
    if linger < 0. then invalid_arg ("Engine." ^ what ^ ".create: negative linger");
    {
      engine;
      threshold;
      capacity;
      linger;
      items = Queue.create ();
      oldest = 0.;
      on_park = ignore;
      run;
    }

  let pending q = Queue.length q.items
  let set_on_park q f = q.on_park <- f

  let flush q =
    if Queue.is_empty q.items then (0, 0)
    else begin
      (* Explicit drain: [Array.init]'s evaluation order is unspecified,
         and delivery order must be enqueue order. *)
      let n = Queue.length q.items in
      let items = Array.make n (Queue.peek q.items) in
      for i = 0 to n - 1 do
        items.(i) <- Queue.pop q.items
      done;
      let ((bitsliced, _) as counts) = q.run q.engine ~threshold:q.threshold items in
      let c = q.engine.counters in
      c.batch_bitsliced_blocks <- c.batch_bitsliced_blocks + bitsliced;
      counts
    end

  (* Time-based flush: a partial batch older than [linger] stops waiting
     for lanes and ships.  Call from the event loop / timer wheel.  Every
     flush drains the whole queue, so the head's age is the age of the
     first enqueue since the last flush. *)
  let tick q ~now =
    if (not (Queue.is_empty q.items)) && now -. q.oldest >= q.linger then
      Some (flush q)
    else None

  let add q ~now item =
    if Queue.is_empty q.items then q.oldest <- now;
    Queue.add item q.items;
    if Queue.length q.items >= q.capacity then ignore (flush q : int * int)
    else q.on_park ()
end

let check_batch what t = function
  | Some q when q.Pending.engine != t ->
      invalid_arg ("Engine." ^ what ^ ": batch bound to another engine")
  | _ -> ()

(* Deferred seals: each item's wire is fully assembled (header, MAC,
   reserved body region) and aliases its job's destination, so running
   the job completes the already-issued string. *)
module Batch = struct
  type item = {
    job : Armor.job;
    wire : string; (* aliases the job's destination; complete after flush *)
    deliver : (string, error) result -> unit;
    span : (Fbsr_util.Span.timer * int64 * (string * Fbsr_util.Json.t) list) option;
        (* the deferred ["engine.seal"] span, finished at flush *)
  }

  type batch = item Pending.queue

  let run t ~threshold items =
    let counts =
      let module A = (val t.armor : Armor.S) in
      match A.batch with
      | Some ops -> ops.Armor.run ~threshold (Array.map (fun s -> s.job) items)
      | None -> assert false (* jobs only enqueue through the armor's ops *)
    in
    Array.iter
      (fun s ->
        match s.span with
        | Some (tm, id, detail) ->
            Fbsr_util.Span.finish t.spans tm ~id "engine.seal" ~detail;
            Fbsr_util.Span.with_current id (fun () -> s.deliver (Ok s.wire))
        | None -> s.deliver (Ok s.wire))
      items;
    counts

  let create ?threshold ?capacity ?linger engine : batch =
    Pending.create "Batch" ~run ?threshold ?capacity ?linger engine

  let set_on_park = Pending.set_on_park
  let pending = Pending.pending
  let flush = Pending.flush
  let tick = Pending.tick
end

(* Deferred opens: the receive prologue, replay registration and RFKC
   probe already ran at enqueue; the item keeps the header view (which,
   like the job, borrows the wire until the flush) for the MAC verify. *)
module Batch_rx = struct
  type item = {
    job : Armor.job;
    entry : flow_entry;
    view : Header.view;
    plaintext : string; (* aliases the job's output; complete after flush *)
    peer : Principal.t;
    deliver : (accepted, error) result -> unit;
    arrived : float;
    tm : (Fbsr_util.Span.timer * int64) option;
  }

  type batch = item Pending.queue

  let run t ~threshold items =
    t.counters.rx_batch_flushes <- t.counters.rx_batch_flushes + 1;
    let counts =
      let module A = (val t.armor : Armor.S) in
      match A.batch_rx with
      | Some ops -> ops.Armor.run_rx ~threshold (Array.map (fun o -> o.job) items)
      | None -> assert false (* jobs only enqueue through the armor's ops *)
    in
    Array.iter
      (fun o ->
        verify_and_deliver t o.tm ~now:o.arrived ~peer:o.peer ~entry:o.entry
          ~v:o.view ~owned:true
          (Fbsr_util.Slice.of_string o.plaintext)
          o.deliver)
      items;
    counts

  let create ?threshold ?capacity ?linger engine : batch =
    Pending.create "Batch_rx" ~run ?threshold ?capacity ?linger engine

  let set_on_park = Pending.set_on_park
  let pending = Pending.pending
  let flush = Pending.flush
  let tick = Pending.tick
end

(* The ["engine.seal"] span detail: wire size plus this seal's
   key-schedule and MAC-midstate cache activity (deltas from the counter
   snapshot taken when it started). *)
let seal_detail t ~wire ~secret ~batched ~ksh0 ~ksm0 ~mmh0 ~mmm0 =
  let c = t.counters in
  let caches =
    [
      ("keysched_hits", Fbsr_util.Json.Int (c.keysched_hits - ksh0));
      ("keysched_misses", Fbsr_util.Json.Int (c.keysched_misses - ksm0));
      ("macmid_hits", Fbsr_util.Json.Int (c.mac_midstate_hits - mmh0));
      ("macmid_misses", Fbsr_util.Json.Int (c.mac_midstate_misses - mmm0));
    ]
  in
  ("bytes", Fbsr_util.Json.Int (String.length wire))
  :: ("secret", Fbsr_util.Json.Bool secret)
  :: (if batched then ("batched", Fbsr_util.Json.Bool true) :: caches else caches)

(* Steps S4-S10 of Figure 4 once the flow entry is in hand: confounder,
   timestamp, MAC, header insertion and body, then the wire goes to [k].

   Zero-copy assembly: the wire size is known up front (fixed header +
   suite MAC length + armor body length), so header, MAC and body are
   written into one exact-capacity buffer which [finalize] steals — one
   allocation per sealed datagram.  Everything algorithm-specific — MAC
   construction, body sizing, the body transform itself — is the armor's
   business; the engine only assembles.

   The body is written inline by the armor, unless a [batch] is given and
   the armor has a batched kernel for this secret body: then the armor
   reserves the body region and returns the pending job that will fill
   it.  The wire is finalized with that region still unwritten and
   ALIASES the job's destination buffer, so [k] fires only from the
   flush that runs the job; the seal span, finished there too, covers
   queue residence — the real seal latency under batching.

   [confounder] overrides the engine's generator: the sharded dispatcher
   pre-draws confounders in input order so the wire bytes are
   independent of the shard count. *)
let seal_datagram ?confounder ?batch t ~now ~sfl ~entry ~secret ~payload
    (k : (string, error) result -> unit) =
  let module A = (val t.armor : Armor.S) in
  let stm =
    if Fbsr_util.Span.enabled t.spans then Some (Fbsr_util.Span.start t.spans)
    else None
  in
  let ksh0 = t.counters.keysched_hits and ksm0 = t.counters.keysched_misses in
  let mmh0 = t.counters.mac_midstate_hits
  and mmm0 = t.counters.mac_midstate_misses in
  let confounder =
    match confounder with
    | Some c -> c
    | None -> Fbsr_util.Lcg.next_u32 t.confounder_gen
  in
  let timestamp = Replay.minutes_of_seconds now in
  let payload_len = String.length payload in
  if Flowstats.enabled t.flowstats then begin
    let key = Sfl.to_int64 sfl in
    Fbsr_util.Sketch.observe t.flowstats.Flowstats.datagrams key 1;
    Fbsr_util.Sketch.observe t.flowstats.Flowstats.bytes key payload_len
  end;
  let mac =
    A.seal_mac t.actx entry ~secret ~confounder ~timestamp
      ~payload:(Fbsr_util.Slice.of_string payload)
  in
  let body_len = A.sealed_body_len ~secret payload_len in
  let w =
    Fbsr_util.Byte_writer.create
      ~capacity:(Header.fixed_size + t.suite.Suite.mac_length + body_len)
      ()
  in
  t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
  Header.encode_fields_into w ~sfl ~suite:t.suite ~secret ~confounder ~timestamp;
  (* Writing the MAC through [substring] also performs the suite's
     truncation (Section 5.3) without an intermediate string. *)
  Fbsr_util.Byte_writer.substring w mac 0 t.suite.Suite.mac_length;
  match (batch, if secret then A.batch else None) with
  | Some b, Some ops ->
      let job = ops.Armor.defer t.actx entry ~confounder ~payload w in
      let wire = Fbsr_util.Byte_writer.finalize w in
      let span =
        match stm with
        | None -> None
        | Some tm ->
            Some
              ( tm,
                Fbsr_util.Span.current (),
                seal_detail t ~wire ~secret ~batched:true ~ksh0 ~ksm0 ~mmh0 ~mmm0 )
      in
      Pending.add b ~now { Batch.job; wire; deliver = k; span }
  | _ ->
      A.seal_body t.actx entry ~secret ~confounder ~payload w;
      let wire = Fbsr_util.Byte_writer.finalize w in
      (match stm with
      | Some tm ->
          Fbsr_util.Span.finish t.spans tm "engine.seal"
            ~detail:
              (seal_detail t ~wire ~secret ~batched:false ~ksh0 ~ksm0 ~mmh0 ~mmm0)
      | None -> ());
      k (Ok wire)

(* [seal_datagram] under the datagram's trace id: the TFKC continuation may be
   running under a later event's ambient context, and the caller's
   transmit hook must still see this datagram's id. *)
let seal_under ?confounder ?batch t tm ~now ~sfl ~entry ~secret ~payload k =
  match tm with
  | Some (_, id) ->
      Fbsr_util.Span.with_current id (fun () ->
          seal_datagram ?confounder ?batch t ~now ~sfl ~entry ~secret ~payload k)
  | None -> seal_datagram ?confounder ?batch t ~now ~sfl ~entry ~secret ~payload k

(* Each datagram entering the send path is counted and, with spans
   armed, opens a new trace: a fresh 64-bit id in the ambient sidecar
   context.  Everything downstream — seal, link transit, the receiver's
   whole pipeline — attributes its spans to this id.  The returned timer
   also captures the id, so continuations that resume in a later
   scheduler event (certificate fetch in flight) still record under it. *)
let open_send t =
  t.counters.sends <- t.counters.sends + 1;
  if Fbsr_util.Span.enabled t.spans then begin
    Fbsr_util.Span.set_current (Fbsr_util.Span.fresh_id ());
    Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.current ())
  end
  else None

(* FBSSend() from the classified flow on: the flow entry is the caller's
   ([entry], the Section 7.2 combined table) or the TFKC's, derived on a
   miss (Figure 6); then [seal_datagram]. *)
let send_core ?confounder ?batch ?entry t tm ~now ~sfl ~src ~dst ~secret ~payload
    (k : (string, error) result -> unit) =
  match entry with
  | Some entry -> seal_under ?confounder ?batch t tm ~now ~sfl ~entry ~secret ~payload k
  | None ->
      flow_key_via t t.tfkc ~sfl ~peer:dst ~src ~dst (function
        | Error e ->
            (* The datagram dies on the sender: terminal span here (the
               receive-side terminal stage never runs). *)
            (match tm with
            | Some (stm, id) ->
                Fbsr_util.Span.finish t.spans stm ~id ~outcome:"drop:keying"
                  "engine.send"
            | None -> ());
            k (Error e)
        | Ok entry ->
            seal_under ?confounder ?batch t tm ~now ~sfl ~entry ~secret ~payload k)

(* FBSSend(), Figure 4 S1-S10 with the Figure 6 TFKC fast path.  [now] is
   supplied by the caller (the datagram layer knows the time); the result
   is the wire representation: FBS header followed by the (possibly
   encrypted) body. *)
let send ?batch t ~now ~attrs ~secret ~payload k =
  check_batch "send" t batch;
  let tm = open_send t in
  let sfl, decision = Fam.classify t.fam ~now attrs in
  let src = attrs.Fam.src and dst = attrs.Fam.dst in
  (match tm with
  | Some (stm, id) ->
      Fbsr_util.Span.finish t.spans stm ~id "fam.classify"
        ~detail:
          [
            ("sfl", Fbsr_util.Json.String (Fmt.str "%a" Sfl.pp sfl));
            ( "decision",
              Fbsr_util.Json.String
                (if decision = Fam.Fresh then "fresh" else "established") );
          ]
  | None -> ());
  if decision = Fam.Fresh && Fbsr_util.Trace.enabled t.trace then
    Fbsr_util.Trace.emit t.trace ~time:now "fbs.engine.flow.setup"
      [
        ("sfl", Fbsr_util.Json.String (Fmt.str "%a" Sfl.pp sfl));
        ("src", Fbsr_util.Json.String (Principal.to_string src));
        ("dst", Fbsr_util.Json.String (Principal.to_string dst));
      ];
  send_core ?batch t tm ~now ~sfl ~src ~dst ~secret ~payload k

(* [send] for a datagram whose flow is already classified: the sharded
   dispatcher runs FAM once, up front, because the sfl *determines* the
   owning shard, and the combined fast path's one table probe yields the
   sfl and the flow entry together.  Identical to [send] minus the
   classify span and the flow-setup trace event (both belong to the
   caller). *)
let send_flow ?confounder ?batch ?entry t ~now ~sfl ~src ~dst ~secret ~payload k =
  check_batch "send_flow" t batch;
  send_core ?confounder ?batch ?entry t (open_send t) ~now ~sfl ~src ~dst ~secret
    ~payload k

(* A replay-check refusal (stale or duplicate), with its trace event. *)
let reject_replay t tm ~now ~(v : Header.view) cause detail e =
  if Fbsr_util.Trace.enabled t.trace then
    Fbsr_util.Trace.emit t.trace ~time:now "fbs.engine.replay.reject"
      (("sfl", Fbsr_util.Json.String (Fmt.str "%a" Sfl.pp v.Header.v_sfl))
      :: ("cause", Fbsr_util.Json.String cause)
      :: detail);
  refuse t tm ~sfl:v.Header.v_sfl e

(* The receive prologue — header decode, suite enforcement, replay check
   (Figure 4 R1-R5).  An [Error] has already been fully accounted
   (counter, flow-drop attribution, trace event, terminal span); the
   caller just delivers it. *)
let receive_prologue t ~now tm ~(wire : Fbsr_util.Slice.t) =
  match Header.decode_view wire with
  | Error e -> refuse t tm (Header_error e)
  | Ok v when v.Header.v_suite.Suite.id <> t.suite.Suite.id ->
      (* The suite is taken from the header only to the extent we accept
         it: a receiver enforces its own configured suite to prevent
         algorithm-downgrade games (the paper leaves this open). *)
      refuse t tm (Header_error (Header.Unknown_suite v.Header.v_suite.Suite.id))
  | Ok v -> (
      let rtm =
        if Fbsr_util.Span.enabled t.spans then Some (Fbsr_util.Span.start t.spans)
        else None
      in
      let verdict =
        Replay.check t.replay ~now ~sfl:v.Header.v_sfl
          ~confounder:v.Header.v_confounder ~timestamp:v.Header.v_timestamp
      in
      (match rtm with
      | Some stm ->
          let id = match tm with Some (_, id) -> id | None -> 0L in
          Fbsr_util.Span.finish t.spans stm ~id "replay.check"
            ~detail:
              [
                ( "verdict",
                  Fbsr_util.Json.String
                    (match verdict with
                    | Replay.Fresh -> "fresh"
                    | Replay.Stale -> "stale"
                    | Replay.Duplicate -> "duplicate") );
              ]
      | None -> ());
      match verdict with
      | Replay.Fresh -> Ok v
      | Replay.Stale ->
          let now_minutes = Replay.minutes_of_seconds now in
          reject_replay t tm ~now ~v "stale"
            [
              ("timestamp", Fbsr_util.Json.Int v.Header.v_timestamp);
              ("now_minutes", Fbsr_util.Json.Int now_minutes);
            ]
            (Stale { timestamp = v.Header.v_timestamp; now_minutes })
      | Replay.Duplicate -> reject_replay t tm ~now ~v "duplicate" [] Duplicate)

(* R6-R12 once the flow entry is in hand.  A secret body the armor can
   open in a batched kernel is deferred into [batch] when one is given:
   the ciphertext is validated now (a frame the inline open would reject
   is rejected here, at the same stage with the same verdict), decrypt
   and MAC verify run at the flush.  Everything else opens inline. *)
let open_datagram ?batch t ~now ~src ~(v : Header.view) ~entry tm k =
  let module A = (val t.armor : Armor.S) in
  let confounder = v.Header.v_confounder and body = v.Header.v_body in
  if not (v.Header.v_secret && A.encrypts) then
    verify_and_deliver t tm ~now ~peer:src ~entry ~v ~owned:false body k
  else
    match (batch, A.batch_rx) with
    | Some b, Some ops -> (
        match ops.Armor.defer_open t.actx entry ~confounder ~body with
        | Error () -> k (refuse t tm ~sfl:v.Header.v_sfl Decrypt_error)
        | Ok (job, plaintext) ->
            t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
            t.counters.rx_batch_deferred <- t.counters.rx_batch_deferred + 1;
            Pending.add b ~now
              {
                Batch_rx.job;
                entry;
                view = v;
                plaintext;
                peer = src;
                deliver = k;
                arrived = now;
                tm;
              })
    | _ -> (
        match A.open_body t.actx entry ~confounder ~body with
        | Ok plaintext ->
            (* The one allocation of a received secret datagram, handed
               out as-is on acceptance. *)
            t.counters.datapath_allocs <- t.counters.datapath_allocs + 1;
            verify_and_deliver t tm ~now ~peer:src ~entry ~v ~owned:true
              (Fbsr_util.Slice.of_string plaintext)
              k
        | Error () -> k (refuse t tm ~sfl:v.Header.v_sfl Decrypt_error))

(* FBSReceive(), Figure 4 R1-R12 with the RFKC fast path.  The wire is a
   borrowed slice: the header is parsed as a view, the MAC is verified
   against the wire bytes in place, and only an accepted datagram
   materializes a header record and payload string. *)
let receive ?batch t ~now ~src ~(wire : Fbsr_util.Slice.t)
    (k : (accepted, error) result -> unit) =
  check_batch "receive" t batch;
  t.counters.receives <- t.counters.receives + 1;
  (* The ambient id was restored by the delivery path (netsim) from the
     sender's transmit-time capture — this is where the receive-side
     chain joins the sender's trace. *)
  let tm =
    if Fbsr_util.Span.enabled t.spans then
      Some (Fbsr_util.Span.start t.spans, Fbsr_util.Span.current ())
    else None
  in
  match receive_prologue t ~now tm ~wire with
  | Error e -> k (Error e)
  | Ok v ->
      flow_key_via t t.rfkc ~sfl:v.Header.v_sfl ~peer:src ~src ~dst:(local t)
        (function
        | Error e -> k (refuse t tm ~sfl:v.Header.v_sfl e)
        | Ok entry -> open_datagram ?batch t ~now ~src ~v ~entry tm k)

(* Synchronous conveniences for callers whose resolver completes inline.
   A resolver that suspends is a caller error, not a verdict: the
   datagram would still be sealed or accepted later, with nobody left to
   hear of it. *)
let settled what = function
  | Some r -> r
  | None -> invalid_arg ("Engine." ^ what ^ ": keying resolver deferred")

let send_sync t ~now ~attrs ~secret ~payload =
  let result = ref None in
  send t ~now ~attrs ~secret ~payload (fun r -> result := Some r);
  settled "send_sync" !result

let receive_sync t ~now ~src ~wire =
  let result = ref None in
  receive t ~now ~src ~wire:(Fbsr_util.Slice.of_string wire) (fun r ->
      result := Some r);
  settled "receive_sync" !result

let header_overhead t = Header.size_for_suite t.suite

(* Worst-case body growth when [secret]: the armor knows its padding. *)
let max_body_growth t =
  let module A = (val t.armor : Armor.S) in
  A.max_body_growth

let wire_overhead t = header_overhead t + max_body_growth t

let armor t = t.armor
