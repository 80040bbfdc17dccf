(* The Section 7.2 combined fast path.

   "For efficiency reasons, we have combined the flow association mechanism
   and the flow key generation.  More specifically, FBSSend() hashes on the
   5-tuple ... and uses the result as an index into the TFKC.  If the
   indexed entry is 'active' (last use is less than THRESHOLD ago), it uses
   the stored flow key.  Otherwise, it begins a new flow by assigning a new
   sfl and calculating the new flow key.  In this way, the mapper module
   and the key cache lookup are combined (by combining the FST and the
   TFKC), thus saving an extra lookup.  The job of the sweeper module also
   becomes implicit as it is absorbed into the mapping phase."

   One direct-mapped table holds (5-tuple, sfl, flow entry, last use); a
   single CRC-32 probe replaces the FAM classification plus the TFKC
   lookup of the generic path.  The slot caches the engine's flow entry
   itself — the flow key with its expanded cipher schedule and MAC
   midstate — so interleaved flows each keep their own schedules and
   the seal skips key expansion for as long as the slot lives.
   Collisions evict (footnote 11). *)

type entry = {
  mutable valid : bool;
  mutable protocol : int;
  mutable src : string;
  mutable src_port : int;
  mutable dst : string;
  mutable dst_port : int;
  mutable sfl : Fbsr_fbs.Sfl.t;
  mutable entry : Fbsr_fbs.Engine.flow_entry option; (* None: derivation pending *)
  mutable last : float;
}

type counters = {
  mutable hits : int;
  mutable misses : int; (* fresh flows: expiry, cold, or collision *)
  mutable collisions : int;
}

type t = {
  table : entry array;
  threshold : float;
  alloc : Fbsr_fbs.Sfl.allocator;
  counters : counters;
}

let fresh_entry () =
  {
    valid = false;
    protocol = 0;
    src = "";
    src_port = 0;
    dst = "";
    dst_port = 0;
    sfl = Fbsr_fbs.Sfl.of_int64 0L;
    entry = None;
    last = 0.0;
  }

let create ?(size = 256) ?(threshold = 600.0) ~alloc () =
  if size <= 0 then invalid_arg "Fast_path.create: size must be positive";
  {
    table = Array.init size (fun _ -> fresh_entry ());
    threshold;
    alloc;
    counters = { hits = 0; misses = 0; collisions = 0 };
  }

let counters t = t.counters

type lookup =
  | Hit of Fbsr_fbs.Sfl.t * Fbsr_fbs.Engine.flow_entry (* active: sfl and entry *)
  | Miss of Fbsr_fbs.Sfl.t (* new flow started; key must be derived *)

(* One probe: classification and key lookup in a single table access. *)
let lookup t ~now ~protocol ~src ~src_port ~dst ~dst_port =
  let i =
    Fbsr_fbs.Policy_five_tuple.tuple_hash ~protocol ~src ~src_port ~dst ~dst_port
    mod Array.length t.table
  in
  let e = t.table.(i) in
  let matches =
    e.valid && e.protocol = protocol && e.src_port = src_port && e.dst_port = dst_port
    && String.equal e.src src && String.equal e.dst dst
  in
  if matches && now -. e.last <= t.threshold then begin
    e.last <- now;
    match e.entry with
    | Some entry ->
        t.counters.hits <- t.counters.hits + 1;
        Hit (e.sfl, entry)
    | None ->
        (* Entry is live but its key derivation is still in flight (an MKD
           fetch is round-tripping).  Keep the flow: same sfl, and let the
           caller wait on the coalesced derivation rather than restarting. *)
        t.counters.misses <- t.counters.misses + 1;
        Miss e.sfl
  end
  else begin
    if e.valid && not matches then t.counters.collisions <- t.counters.collisions + 1;
    t.counters.misses <- t.counters.misses + 1;
    let sfl = Fbsr_fbs.Sfl.fresh t.alloc in
    e.valid <- true;
    e.protocol <- protocol;
    e.src <- src;
    e.src_port <- src_port;
    e.dst <- dst;
    e.dst_port <- dst_port;
    e.sfl <- sfl;
    e.entry <- None; (* pending derivation *)
    e.last <- now;
    Miss sfl
  end

(* Install the derived flow entry for the slot currently holding [sfl]
   (it may have been evicted meanwhile — then the entry is simply not
   cached, which is fine for soft state). *)
let install_entry t ~sfl ~entry =
  Array.iter
    (fun e -> if e.valid && Fbsr_fbs.Sfl.equal e.sfl sfl then e.entry <- Some entry)
    t.table

let active t ~now =
  Array.fold_left
    (fun n e -> if e.valid && now -. e.last <= t.threshold then n + 1 else n)
    0 t.table
