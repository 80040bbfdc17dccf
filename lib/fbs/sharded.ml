(* Domain-sharded datapath.  See sharded.mli for the model.

   The dispatch loop is deliberately bulk-synchronous: classify and
   partition a whole batch on the calling domain, hand the per-shard
   buckets to Domain_shim.parallel_run (bucket 0 on the caller, the rest
   on the process-wide pool of parked worker domains), wait for all of
   them, return results in input order.  No cross-domain queues and no
   locks in this module — the only synchronisation is the pool's
   per-worker handoff — so each shard engine is touched by exactly one
   domain per batch, and the dispatcher-side state (FAM, confounder LCG)
   is touched only between fan-outs.  Which worker runs a given shard
   may change between batches; the engines keep no domain-local state,
   and the crypto scratch that is domain-local persists per worker. *)

type t = {
  nshards : int;
  requested_shards : int;
  engines : Engine.t array;
  (* One receive batch per shard: a shard's bucket enqueues its frames
     (scalar prologue in input order) and flushes before the join, so
     every deferred open of a batch resolves on the shard's own domain. *)
  rx_batches : Engine.Batch_rx.batch array;
  fam : Fam.t;
  confounders : Fbsr_util.Lcg.t;
  (* Telemetry tick: runs on the dispatching domain after each batch
     joins, when every shard's state is quiescent and safe to snapshot. *)
  mutable on_tick : now:float -> unit;
}

let create ?nshards ?(confounder_seed = 0x5eed) ~engine ~fam () =
  let requested =
    match nshards with
    | None -> Fbsr_util.Domain_shim.recommended_domain_count ()
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Sharded.create: nshards %d < 1" n)
  in
  let n = if Fbsr_util.Domain_shim.parallelism_available then requested else 1 in
  let engines = Array.init n engine in
  {
    nshards = n;
    requested_shards = requested;
    engines;
    rx_batches = Array.map (fun e -> Engine.Batch_rx.create e) engines;
    fam;
    confounders = Fbsr_util.Lcg.create confounder_seed;
    on_tick = (fun ~now:_ -> ());
  }

let nshards t = t.nshards
let requested_shards t = t.requested_shards
let engine t i = t.engines.(i)
let engines t = Array.copy t.engines
let fam t = t.fam
let set_tick_hook t f = t.on_tick <- f

let flowstats t =
  Flowstats.merge (Array.to_list (Array.map Engine.flowstats t.engines))

let shard_of_crc t crc = crc land max_int mod t.nshards
let shard_of_sfl t sfl = shard_of_crc t (Fbsr_util.Crc32.update_int64 0 (Sfl.to_int64 sfl))

(* Partition job indices 0..n-1 into per-shard buckets, preserving input
   order within each bucket (per-flow order depends on it). *)
let buckets_of t shard_of n =
  let counts = Array.make t.nshards 0 in
  for i = 0 to n - 1 do
    let s = shard_of i in
    counts.(s) <- counts.(s) + 1
  done;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make t.nshards 0 in
  for i = 0 to n - 1 do
    let s = shard_of i in
    buckets.(s).(fill.(s)) <- i;
    fill.(s) <- fill.(s) + 1
  done;
  buckets

(* Fan non-empty buckets out to domains.  Each thunk writes disjoint
   slots of [results]; parallel_run's wait on each worker publishes them
   back.  [after] runs on the shard's domain once its bucket is drained —
   the receive path's end-of-bucket batch flush. *)
let run_buckets ?(after = fun (_ : int) -> ()) t buckets per_index =
  let thunks =
    Array.of_list
      (List.filter_map
         (fun s ->
           if Array.length buckets.(s) = 0 then None
           else
             Some
               (fun () ->
                 Array.iter (per_index s) buckets.(s);
                 after s))
         (List.init t.nshards Fun.id))
  in
  ignore (Fbsr_util.Domain_shim.parallel_run thunks : unit array)

let settled what = function
  | Some r -> r
  | None -> invalid_arg ("Sharded." ^ what ^ ": keying resolver deferred")

let send_all t ~now ~secret jobs =
  let n = Array.length jobs in
  (* Classification and confounder draws happen here, in input order, on
     the dispatching domain — the wire bytes cannot depend on the shard
     count. *)
  let sfls = Array.make n (Sfl.of_int64 0L) in
  let confs = Array.make n 0 in
  for i = 0 to n - 1 do
    let attrs, _ = jobs.(i) in
    let sfl, _decision = Fam.classify t.fam ~now attrs in
    sfls.(i) <- sfl;
    confs.(i) <- Fbsr_util.Lcg.next_u32 t.confounders
  done;
  let buckets = buckets_of t (fun i -> shard_of_sfl t sfls.(i)) n in
  let results = Array.make n None in
  run_buckets t buckets (fun s i ->
      let attrs, payload = jobs.(i) in
      Engine.send_flow ~confounder:confs.(i) t.engines.(s) ~now ~sfl:sfls.(i)
        ~src:attrs.Fam.src ~dst:attrs.Fam.dst ~secret ~payload
        (fun r -> results.(i) <- Some r));
  t.on_tick ~now;
  Array.map (settled "send_all") results

let receive_all t ~now ~src wires =
  let n = Array.length wires in
  let shard_of i =
    let w = wires.(i) in
    (* The sfl is the first 8 bytes of every well-formed header; anything
       shorter goes to shard 0, whose decode rejects it normally. *)
    if String.length w < 8 then 0
    else shard_of_crc t (Fbsr_util.Crc32.update_int64 0 (String.get_int64_be w 0))
  in
  let buckets = buckets_of t shard_of n in
  let results = Array.make n None in
  (* Each shard's bucket feeds its receive batch: prologue per frame in
     input order, one cross-flow bitsliced decrypt sweep per flush (the
     queue auto-flushes at capacity; the end-of-bucket flush drains the
     remainder), verdicts identical to unbatched [Engine.receive]. *)
  run_buckets t buckets
    ~after:(fun s -> ignore (Engine.Batch_rx.flush t.rx_batches.(s) : int * int))
    (fun s i ->
      Engine.receive ~batch:t.rx_batches.(s) t.engines.(s) ~now ~src
        ~wire:(Fbsr_util.Slice.of_string wires.(i))
        (fun r -> results.(i) <- Some r));
  t.on_tick ~now;
  Array.map (settled "receive_all") results

let register_metrics t m =
  Array.iteri
    (fun i e ->
      Engine.register_metrics e m;
      Engine.register_metrics e (Fbsr_util.Metrics.sub m (Printf.sprintf "shard.%d" i)))
    t.engines

let aggregate_counters t =
  let z : Engine.counters =
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
  Array.iter
    (fun e ->
      let c = Engine.counters e in
      z.sends <- z.sends + c.Engine.sends;
      z.receives <- z.receives + c.Engine.receives;
      z.accepted <- z.accepted + c.Engine.accepted;
      z.flow_key_computations <- z.flow_key_computations + c.Engine.flow_key_computations;
      z.flow_key_recoveries <- z.flow_key_recoveries + c.Engine.flow_key_recoveries;
      z.macs_computed <- z.macs_computed + c.Engine.macs_computed;
      z.encryptions <- z.encryptions + c.Engine.encryptions;
      z.decryptions <- z.decryptions + c.Engine.decryptions;
      z.errors_header <- z.errors_header + c.Engine.errors_header;
      z.errors_stale <- z.errors_stale + c.Engine.errors_stale;
      z.errors_duplicate <- z.errors_duplicate + c.Engine.errors_duplicate;
      z.errors_keying <- z.errors_keying + c.Engine.errors_keying;
      z.errors_mac <- z.errors_mac + c.Engine.errors_mac;
      z.errors_decrypt <- z.errors_decrypt + c.Engine.errors_decrypt;
      z.bytes_copied <- z.bytes_copied + c.Engine.bytes_copied;
      z.datapath_allocs <- z.datapath_allocs + c.Engine.datapath_allocs;
      z.keysched_hits <- z.keysched_hits + c.Engine.keysched_hits;
      z.keysched_misses <- z.keysched_misses + c.Engine.keysched_misses;
      z.mac_midstate_hits <- z.mac_midstate_hits + c.Engine.mac_midstate_hits;
      z.mac_midstate_misses <- z.mac_midstate_misses + c.Engine.mac_midstate_misses;
      z.rx_batch_deferred <- z.rx_batch_deferred + c.Engine.rx_batch_deferred;
      z.rx_batch_flushes <- z.rx_batch_flushes + c.Engine.rx_batch_flushes;
      z.batch_bitsliced_blocks <- z.batch_bitsliced_blocks + c.Engine.batch_bitsliced_blocks)
    t.engines;
  z
