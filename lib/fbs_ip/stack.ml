(* The mapping of FBS to IP (paper, Section 7).

   The FBS header is inserted between the IPv4 header and the transport
   payload — "a short-cut form of IP encapsulation".  Send processing hooks
   between ip_output's bulk processing and fragmentation; receive
   processing hooks between reassembly and dispatch; both are transparent
   to IP (the host stack provides exactly those hook points).  tcp_output's
   MSS calculation learns the FBS overhead through
   [Minitcp.set_mss_reduction], reproducing the paper's third kernel
   change.

   The flow policy is Section 7.1's 5-tuple + THRESHOLD policy: the
   classifier peeks at the transport ports just past the IP header — the
   same layering violation the paper defends in footnote 9.

   Traffic to or from the key server bypasses FBS (the "secure flow
   bypass" of Figure 5): securing certificate fetches would be circular,
   and certificates are verified on receipt.

   When a datagram needs a master key that is not cached, its processing
   suspends while the MKD round-trips the network; the datagram is parked
   and finishes through [Host.transmit_prepared] / [Host.deliver_up] when
   the key arrives — the simulator's analogue of the paper's blocking
   Upcall().

   Send goes through one cross-flow seal batch per stack
   ([Engine.Batch]), on both the FAM path and the combined fast path.
   The engine decides what parks: a secret DES-CBC body waits there for
   the bitsliced kernel, everything else seals inline.  A
   batch drains when an enqueue fills it (63 lanes), or otherwise from
   one flush event at [~delay:0.], armed by the first park of a burst
   from the batch's on-park hook — which also covers a late enqueue from
   a resumed MKD continuation.  Either way the wires leave at the same
   simulated instant, in enqueue order, so batching changes no simulated
   time.  A hook that keeps a datagram to finish it later (parked on a
   key fetch or in a batch) returns [Host.Held], not a drop. *)

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
      (** Use the Section 7.2 combined FST+TFKC table on the send side
          (one probe instead of FAM classification + TFKC lookup). *)
  encapsulation : [ `Shim | `Ip_option ];
      (** [`Shim] (default): FBS header between the IP header and the
          payload, the paper's implementation.  [`Ip_option]: carry the
          FBS header as an IPv4 option — the paper's noted alternative,
          workable only while the header fits the 40-byte option budget. *)
  batched_rx : bool;
      (** Route receive-side body opens through an
          {!Fbsr_fbs.Engine.Batch_rx} queue: frames arriving within
          [rx_linger] of each other decrypt in one cross-flow bitsliced
          sweep, delivered in arrival order via the parked-datagram
          upcall.  Verdicts and bytes are identical to the inline path;
          delivery of a deferrable frame lags arrival by at most
          [rx_linger]. *)
  rx_linger : float;  (** Max queue residence before a forced flush. *)
}

let default_config ?(suite = Fbsr_fbs.Suite.paper_md5_des) ?(threshold = 600.0)
    ?(fst_size = 256) ?(replay_window_minutes = 2) ?(strict_replay = false)
    ?(secret_policy = fun ~protocol:_ ~src_port:_ ~dst_port:_ -> true)
    ?(bypass = fun _ -> false) ?(tfkc_sets = 128) ?(rfkc_sets = 128) ?(cache_assoc = 1)
    ?max_flow_bytes ?max_flow_life ?(keying_fetch_retries = 0)
    ?(combined_fast_path = false) ?(encapsulation = `Shim)
    ?(batched_rx = false) ?(rx_linger = 0.001) () =
  {
    suite;
    threshold;
    fst_size;
    replay_window_minutes;
    strict_replay;
    secret_policy;
    bypass;
    tfkc_sets;
    rfkc_sets;
    cache_assoc;
    max_flow_bytes;
    max_flow_life;
    keying_fetch_retries;
    combined_fast_path;
    encapsulation;
    batched_rx;
    rx_linger;
  }

type counters = {
  mutable sent : int;
  mutable received : int;
  mutable suspended_out : int; (* datagrams parked awaiting a master key *)
  mutable suspended_in : int;
  mutable resumed : int;
  mutable dropped_error : int;
  mutable bypassed : int;
  mutable tx_batched : int; (* datagrams parked in the send batch *)
  mutable rx_batched : int; (* frames parked in the receive batch *)
}

type t = {
  host : Host.t;
  engine : Fbsr_fbs.Engine.t;
  config : config;
  counters : counters;
  spans : Fbsr_util.Span.t;
  policy_state : Fbsr_fbs.Policy_five_tuple.t;
  fast_path : Fast_path.t option; (* combined FST+TFKC, when configured *)
  tx_batch : Fbsr_fbs.Engine.Batch.batch;
  rx_batch : Fbsr_fbs.Engine.Batch_rx.batch option; (* when batched_rx *)
  asm : Fbsr_util.Byte_writer.t;
      (* Reusable assembly buffer for the IP-option encapsulation splices
         (option build on send, option+payload rejoin on receive); reset
         per datagram, so its contents never outlive one hook call. *)
}

let engine t = t.engine
let counters t = t.counters
let tx_batch t = t.tx_batch
let host t = t.host

(* Register the stack's own counters (under "fbs_ip.stack.") and the whole
   engine subtree (under "fbs.") on [m].  Pass [Metrics.sub m
   "host.<addr>"] for a per-host view; several stacks on one registry sum. *)
let register_metrics (t : t) m =
  let open Fbsr_util.Metrics in
  let s = sub m "fbs_ip.stack" in
  let c = t.counters in
  register_probe s "sent" (fun () -> c.sent);
  register_probe s "received" (fun () -> c.received);
  register_probe s "suspended_out" (fun () -> c.suspended_out);
  register_probe s "suspended_in" (fun () -> c.suspended_in);
  register_probe s "resumed" (fun () -> c.resumed);
  register_probe s "dropped_error" (fun () -> c.dropped_error);
  register_probe s "bypassed" (fun () -> c.bypassed);
  register_probe s "tx_batched" (fun () -> c.tx_batched);
  register_probe s "rx_batched" (fun () -> c.rx_batched);
  Fbsr_fbs.Engine.register_metrics t.engine m
let policy_state t = t.policy_state
let fast_path t = t.fast_path
let principal_of_addr addr = Fbsr_fbs.Principal.of_string (Addr.to_string addr)

(* Peek transport ports just past the IP header (footnote 9's layering
   violation).  Returns (0,0) when the protocol has no ports or the
   datagram is too short (e.g. a non-first fragment of a bypassed flow —
   FBS itself always sees whole datagrams). *)
let peek_ports ~protocol payload =
  if (protocol = Ipv4.proto_tcp || protocol = Ipv4.proto_udp)
     && String.length payload >= 4
  then
    ( (Char.code payload.[0] lsl 8) lor Char.code payload.[1],
      (Char.code payload.[2] lsl 8) lor Char.code payload.[3] )
  else (0, 0)

(* --- IP-option encapsulation (paper Section 7.2's alternative) --- *)

let fbs_option_type = 0x9e (* copied flag set, experimental option number *)

(* Split the engine's wire output (FBS header ^ body) into the chosen
   on-the-wire carriage. *)
let encap t (h : Ipv4.header) wire =
  match t.config.encapsulation with
  | `Shim -> (h, wire)
  | `Ip_option ->
      let hdr_len = Fbsr_fbs.Engine.header_overhead t.engine in
      (* Assemble type | length | FBS header | zero padding in the
         reused buffer: one allocation for the options string instead of
         the old sub + sprintf + two concatenations. *)
      let w = t.asm in
      Fbsr_util.Byte_writer.reset w;
      Fbsr_util.Byte_writer.u8 w fbs_option_type;
      Fbsr_util.Byte_writer.u8 w (hdr_len + 2);
      Fbsr_util.Byte_writer.substring w wire 0 hdr_len;
      while Fbsr_util.Byte_writer.length w mod 4 <> 0 do
        Fbsr_util.Byte_writer.u8 w 0
      done;
      ( { h with Ipv4.options = Fbsr_util.Byte_writer.contents w },
        String.sub wire hdr_len (String.length wire - hdr_len) )

(* Reconstruct the engine's wire form on receive; [None] when the datagram
   does not carry FBS in the configured way.  Shim mode borrows the
   payload as-is (zero-copy); option mode rejoins header and payload in
   the reused assembly buffer — one allocation instead of the old
   sub + concat splice. *)
let decap t (h : Ipv4.header) payload : (Ipv4.header * Fbsr_util.Slice.t) option =
  match t.config.encapsulation with
  | `Shim -> Some (h, Fbsr_util.Slice.of_string payload)
  | `Ip_option ->
      let opts = h.Ipv4.options in
      if String.length opts >= 2 && Char.code opts.[0] = fbs_option_type then begin
        (* Option length counts the type and length bytes themselves. *)
        let len = Char.code opts.[1] in
        if len >= 2 && len <= String.length opts then begin
          let w = t.asm in
          Fbsr_util.Byte_writer.reset w;
          Fbsr_util.Byte_writer.substring w opts 2 (len - 2);
          Fbsr_util.Byte_writer.bytes w payload;
          Some
            ( { h with Ipv4.options = "" },
              Fbsr_util.Slice.of_string (Fbsr_util.Byte_writer.contents w) )
        end
        else None
      end
      else None

(* Send processing via the combined table (Section 7.2): one probe yields
   both the sfl and the flow entry; a miss derives the entry (possibly
   suspending on an MKD fetch) and installs it. *)
let send_via_fast_path t fp (h : Ipv4.header) payload ~src_port ~dst_port ~secret ~now
    k =
  let batch = t.tx_batch in
  let src = Addr.to_string h.src and dst = Addr.to_string h.dst in
  let src_p = Fbsr_fbs.Principal.of_string src
  and dst_p = Fbsr_fbs.Principal.of_string dst in
  match
    Fast_path.lookup fp ~now ~protocol:h.protocol ~src ~src_port ~dst ~dst_port
  with
  | Fast_path.Hit (sfl, entry) ->
      Fbsr_fbs.Engine.send_flow ~batch ~entry t.engine ~now ~sfl ~src:src_p
        ~dst:dst_p ~secret ~payload k
  | Fast_path.Miss sfl ->
      Fbsr_fbs.Engine.derive_flow_key t.engine ~sfl ~src:src_p ~dst:dst_p (function
        | Error e -> k (Error e)
        | Ok entry ->
            Fast_path.install_entry fp ~sfl ~entry;
            Fbsr_fbs.Engine.send_flow ~batch ~entry t.engine ~now ~sfl ~src:src_p
              ~dst:dst_p ~secret ~payload k)

(* Late completion of a send: the datagram was parked — during an MKD
   fetch ([resumed]), or in the send batch until its flush — and is
   transmitted from the resumed continuation or the flush.  No caller is
   left to raise a transmit failure to (DF set and too big): it is a
   stack error, and the rest of the flush still goes out. *)
let sealed_late t h ~batch_parked = function
  | Ok wire -> (
      if not batch_parked then t.counters.resumed <- t.counters.resumed + 1;
      let h, p = encap t h wire in
      match Host.transmit_prepared t.host h p with
      | () -> t.counters.sent <- t.counters.sent + 1
      | exception Host.Send_error _ ->
          t.counters.dropped_error <- t.counters.dropped_error + 1)
  | Error _ -> t.counters.dropped_error <- t.counters.dropped_error + 1

let output_hook t (h : Ipv4.header) payload : Host.hook_result =
  if t.config.bypass h.dst then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    Host.Pass (h, payload)
  end
  else begin
    let src_port, dst_port = peek_ports ~protocol:h.protocol payload in
    let secret = t.config.secret_policy ~protocol:h.protocol ~src_port ~dst_port in
    let now = Host.now t.host in
    (* Both send paths share one completion: a verdict before the engine
       call returns passes the datagram on; a later one finishes it from
       the resumed continuation. *)
    let sync_result = ref None in
    let completed_sync = ref true in
    let batch_parked = ref false in
    let k r =
      if !completed_sync then sync_result := Some r
      else sealed_late t h ~batch_parked:!batch_parked r
    in
    let before = Fbsr_fbs.Engine.Batch.pending t.tx_batch in
    (match t.fast_path with
    | Some fp -> send_via_fast_path t fp h payload ~src_port ~dst_port ~secret ~now k
    | None ->
        let attrs =
          Fbsr_fbs.Fam.attrs ~protocol:h.protocol ~src_port ~dst_port
            ~size:(String.length payload) ~src:(principal_of_addr h.src)
            ~dst:(principal_of_addr h.dst) ()
        in
        Fbsr_fbs.Engine.send ~batch:t.tx_batch t.engine ~now ~attrs ~secret ~payload
          k);
    (* Queued synchronously (not sealed inline, not sent by a capacity
       flush).  As on receive, the flush is armed from the batch's on-park
       hook (see [install]), which also sees the late enqueue of a send
       resumed from an MKD fetch. *)
    if
      Option.is_none !sync_result
      && Fbsr_fbs.Engine.Batch.pending t.tx_batch = before + 1
    then batch_parked := true;
    completed_sync := false;
    match !sync_result with
    | Some (Ok wire) ->
        t.counters.sent <- t.counters.sent + 1;
        let h, p = encap t h wire in
        Host.Pass (h, p)
    | Some (Error _) ->
        t.counters.dropped_error <- t.counters.dropped_error + 1;
        Host.Drop "fbs send error"
    | None ->
        if !batch_parked then
          (* Sent from the batch flush via [Host.transmit_prepared]. *)
          Host.Held "fbs tx batched"
        else begin
          t.counters.suspended_out <- t.counters.suspended_out + 1;
          Host.Held "fbs awaiting master key"
        end
  end

(* Frames parked in the receive batch (0 without one). *)
let rx_queued t =
  match t.rx_batch with
  | Some b -> Fbsr_fbs.Engine.Batch_rx.pending b
  | None -> 0

let input_hook t (h : Ipv4.header) payload : Host.hook_result =
  if t.config.bypass h.src then begin
    t.counters.bypassed <- t.counters.bypassed + 1;
    Host.Pass (h, payload)
  end
  else begin
    let dtm =
      if Fbsr_util.Span.enabled t.spans then Some (Fbsr_util.Span.start t.spans)
      else None
    in
    match decap t h payload with
    | None ->
        (match dtm with
        | Some stm ->
            Fbsr_util.Span.finish t.spans stm "stack.decap"
              ~detail:[ ("ok", Fbsr_util.Json.Bool false) ]
        | None -> ());
        t.counters.dropped_error <- t.counters.dropped_error + 1;
        Host.Drop "fbs: no security header in configured encapsulation"
    | Some (h, wire) ->
    (match dtm with
    | Some stm ->
        Fbsr_util.Span.finish t.spans stm "stack.decap"
          ~detail:
            [
              ("ok", Fbsr_util.Json.Bool true);
              ("bytes", Fbsr_util.Json.Int (Fbsr_util.Slice.length wire));
            ]
    | None -> ());
    let now = Host.now t.host in
    let src = principal_of_addr h.src in
    let sync_result = ref None in
    let completed_sync = ref true in
    let batch_parked = ref false in
    let k r =
      if !completed_sync then sync_result := Some r
      else begin
        (* Late completion: the datagram was parked — during an MKD fetch
           ([resumed]), or in the receive batch until its flush. *)
        match r with
        | Ok acc ->
            if not !batch_parked then
              t.counters.resumed <- t.counters.resumed + 1;
            t.counters.received <- t.counters.received + 1;
            let h =
              {
                h with
                Ipv4.total_length =
                  Ipv4.header_length h + String.length acc.Fbsr_fbs.Engine.payload;
              }
            in
            Host.deliver_up t.host h acc.Fbsr_fbs.Engine.payload
        | Error _ -> t.counters.dropped_error <- t.counters.dropped_error + 1
      end
    in
    let before = rx_queued t in
    Fbsr_fbs.Engine.receive ?batch:t.rx_batch t.engine ~now ~src ~wire k;
    (* Queued synchronously (not refused inline, not delivered by a
       capacity flush).  The linger flush is armed by the batch's on-park
       hook (see [install]), not here: a frame that suspends on the
       receive-side master-key fetch enqueues later, from the resumed
       keying continuation's event, where no synchronous check in this
       hook could observe it — arming only from here would park such a
       frame indefinitely. *)
    if Option.is_none !sync_result && rx_queued t = before + 1 then
      batch_parked := true;
    completed_sync := false;
    match !sync_result with
    | Some (Ok acc) ->
        t.counters.received <- t.counters.received + 1;
        Host.Pass
          ( {
              h with
              Ipv4.total_length =
                Ipv4.header_length h + String.length acc.Fbsr_fbs.Engine.payload;
            },
            acc.Fbsr_fbs.Engine.payload )
    | Some (Error _) ->
        t.counters.dropped_error <- t.counters.dropped_error + 1;
        Host.Drop "fbs receive error"
    | None ->
        if !batch_parked then
          (* Delivered from the batch flush via [Host.deliver_up]. *)
          Host.Held "fbs rx batched"
        else begin
          t.counters.suspended_in <- t.counters.suspended_in + 1;
          Host.Held "fbs awaiting master key"
        end
  end

(* A batch's on-park hook: count the park and, unless a flush is already
   pending, schedule one [delay] ahead (re-armed by the next park after it
   runs).  A park may come from an application's send between runs or
   from inside an event (a packet arrival, an MKD-reply continuation);
   [Engine.schedule] serves both. *)
let flush_on_park host ~delay ~count flush =
  let armed = ref false in
  fun () ->
    count ();
    if not !armed then begin
      armed := true;
      Engine.schedule (Host.engine host) ~delay (fun () ->
          armed := false;
          ignore (flush () : int * int))
    end

let install ?(config = default_config ()) ?(sfl_seed = 0x5f1)
    ?(trace = Fbsr_util.Trace.none) ?(spans = Fbsr_util.Span.none)
    ~private_value ~group ~ca_public ~ca_hash ~resolver host =
  let local = principal_of_addr (Host.addr host) in
  let keying =
    Fbsr_fbs.Keying.create ~fetch_retries:config.keying_fetch_retries ~trace ~local
      ~group ~private_value ~ca_public ~ca_hash ~resolver
      ~clock:(fun () -> Host.now host)
      ()
  in
  let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create sfl_seed) in
  let policy, policy_state =
    Fbsr_fbs.Policy_five_tuple.policy_with_state ~fst_size:config.fst_size
      ~threshold:config.threshold ?max_flow_bytes:config.max_flow_bytes
      ?max_flow_life:config.max_flow_life ~alloc ()
  in
  let fam = Fbsr_fbs.Fam.create policy in
  let engine =
    Fbsr_fbs.Engine.create ~suite:config.suite ~tfkc_sets:config.tfkc_sets
      ~rfkc_sets:config.rfkc_sets ~cache_assoc:config.cache_assoc
      ~replay_window_minutes:config.replay_window_minutes
      ~strict_replay:config.strict_replay ~trace ~spans ~keying ~fam ()
  in
  let fast_path =
    if config.combined_fast_path then
      Some
        (Fast_path.create ~size:config.fst_size ~threshold:config.threshold
           ~alloc:(Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create (sfl_seed lxor 0x77)))
           ())
    else None
  in
  let t =
    {
      host;
      engine;
      config;
      spans;
      counters =
        {
          sent = 0;
          received = 0;
          suspended_out = 0;
          suspended_in = 0;
          resumed = 0;
          dropped_error = 0;
          bypassed = 0;
          tx_batched = 0;
          rx_batched = 0;
        };
      policy_state;
      fast_path;
      tx_batch = Fbsr_fbs.Engine.Batch.create engine;
      rx_batch =
        (if config.batched_rx then
           Some (Fbsr_fbs.Engine.Batch_rx.create ~linger:config.rx_linger engine)
         else None);
      asm = Fbsr_util.Byte_writer.create ~capacity:64 ();
    }
  in
  (* Both batches arm their flush from their own enqueue, so every park is
     covered — in particular a datagram whose keying suspended, which
     enqueues from the resumed continuation's event, after the hook has
     long returned.  A partial send batch ships at the instant it formed
     (after the current event, so the rest of a burst joins it); a
     partial receive batch waits at most [rx_linger]. *)
  Fbsr_fbs.Engine.Batch.set_on_park t.tx_batch
    (flush_on_park host ~delay:0.
       ~count:(fun () -> t.counters.tx_batched <- t.counters.tx_batched + 1)
       (fun () -> Fbsr_fbs.Engine.Batch.flush t.tx_batch));
  (match t.rx_batch with
  | None -> ()
  | Some b ->
      Fbsr_fbs.Engine.Batch_rx.set_on_park b
        (flush_on_park host ~delay:config.rx_linger
           ~count:(fun () -> t.counters.rx_batched <- t.counters.rx_batched + 1)
           (fun () -> Fbsr_fbs.Engine.Batch_rx.flush b)));
  (match config.encapsulation with
  | `Shim -> ()
  | `Ip_option ->
      (* "An alternative is to implement it as an IP option, but the 40
         byte maximum is fairly limiting": enforce the limit up front. *)
      let need = Fbsr_fbs.Engine.header_overhead engine + 2 in
      if need > Ipv4.max_options then
        invalid_arg
          (Printf.sprintf
             "Stack.install: suite %s needs %d option bytes; IPv4 allows %d (the 40-byte maximum is fairly limiting)"
             (Fbsr_fbs.Suite.name config.suite) need Ipv4.max_options));
  Host.set_output_hook host (output_hook t);
  Host.set_input_hook host (input_hook t);
  (* The paper's tcp_output fix: publish the per-datagram overhead so the
     MSS calculation can subtract it.  In option mode the FBS header rides
     in the (padded) IP options instead of the payload. *)
  (let overhead =
     match config.encapsulation with
     | `Shim -> Fbsr_fbs.Engine.wire_overhead engine
     | `Ip_option ->
         let opt = Fbsr_fbs.Engine.header_overhead engine + 2 in
         let padded = (opt + 3) land lnot 3 in
         padded + Fbsr_fbs.Engine.max_body_growth engine
   in
   Minitcp.set_mss_reduction host overhead);
  t

(* The standalone sweeper of Figure 7: periodically scan the FST and
   expire idle flows.  The paper's Section 7.2 implementation absorbs
   sweeping into the mapping phase (which [Policy_five_tuple.map] and the
   fast path both do); running the explicit sweeper as well bounds the
   table's occupancy between packets, at a configurable period. *)
let start_sweeper ?(period = 60.0) t =
  let engine = Host.engine t.host in
  let rec tick () =
    ignore (Fbsr_fbs.Policy_five_tuple.sweep t.policy_state ~now:(Host.now t.host));
    Engine.schedule engine ~delay:period tick
  in
  Engine.schedule engine ~delay:period tick

let uninstall t =
  Host.clear_hooks t.host;
  Minitcp.set_mss_reduction t.host 0
