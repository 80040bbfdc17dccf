(* Soft-state key caches (paper, Section 5.3 "Key Caching").

   A generic set-associative cache with:
   - pluggable randomising hash (CRC-32 by default — the paper's
     recommendation, because cache inputs such as local addresses and
     sequential sfl values are highly correlated);
   - LRU replacement within a set;
   - miss classification into the three C's (compulsory/cold, capacity,
     conflict), which the paper uses to reason about cache sizing.

   Classification follows the standard methodology: a miss on a never-seen
   key is *cold*; a miss on a key that a fully-associative LRU cache of the
   same total capacity would still hold is *conflict*; otherwise it is
   *capacity*.  The shadow fully-associative cache is maintained alongside,
   at O(1) per access: one table maps each key ever touched to its
   [shadow] node, which records whether the key has missed ("seen") and
   threads it through an intrusive doubly-linked recency list (most
   recent at the head).  Every access touches exactly one key at a fresh
   tick, so recency order is tick order and the shadow's LRU victim is
   simply the list tail.  A hit relinks the node its slot points to —
   no table lookup — and allocates nothing (the slot also carries its
   [Some value] preallocated); a miss costs one table lookup.

   The cache is soft state by construction: any entry may be dropped at any
   time and the protocol merely recomputes — correctness never depends on
   cache contents. *)

(* A key's node in the shadow: [linked] while the key is among the
   [capacity] most recently touched, [seen] once it has missed. *)
type shadow = {
  mutable prev : shadow;
  mutable next : shadow;
  mutable linked : bool;
  mutable seen : bool;
}

type ('k, 'v) slot = {
  key : 'k;
  found : 'v option; (* always [Some value]: built once so a hit allocates nothing *)
  node : shadow; (* the key's shadow node (the sentinel when not classifying) *)
  mutable last_used : int;
  inserted : int; (* tick at insertion, for FIFO replacement *)
}

(* Replacement policy within a set — the paper's Section 5.3 lists "a
   better replacement policy" among the levers against conflict misses. *)
type replacement = Lru | Fifo | Random of Fbsr_util.Rng.t

type stats = {
  mutable hits : int;
  mutable misses_cold : int;
  mutable misses_capacity : int;
  mutable misses_conflict : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type ('k, 'v) t = {
  sets : int;
  assoc : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  replacement : replacement;
  slots : ('k, 'v) slot option array; (* sets * assoc *)
  mutable tick : int;
  stats : stats;
  (* Shadow state for miss classification. *)
  nodes : ('k, shadow) Hashtbl.t; (* never shrinks: the [seen] memory *)
  lru : shadow; (* sentinel: [lru.next] is the head, [lru.prev] the tail *)
  mutable shadow_size : int; (* nodes currently linked *)
  classify : bool;
  name : string; (* observability label, e.g. "tfkc" *)
  trace : Fbsr_util.Trace.t;
}

let new_stats () =
  {
    hits = 0;
    misses_cold = 0;
    misses_capacity = 0;
    misses_conflict = 0;
    evictions = 0;
    invalidations = 0;
  }

let sentinel () =
  let rec s = { prev = s; next = s; linked = false; seen = false } in
  s

let create ?(assoc = 1) ?(classify = true) ?(replacement = Lru) ?(name = "cache")
    ?(trace = Fbsr_util.Trace.none) ~sets ~hash ~equal () =
  if sets <= 0 || assoc <= 0 then invalid_arg "Cache.create: bad geometry";
  {
    sets;
    assoc;
    hash;
    equal;
    replacement;
    slots = Array.make (sets * assoc) None;
    tick = 0;
    stats = new_stats ();
    nodes = Hashtbl.create 64;
    lru = sentinel ();
    shadow_size = 0;
    classify;
    name;
    trace;
  }

let capacity t = t.sets * t.assoc
let stats t = t.stats
let name t = t.name

(* Expose the statistics record through the metrics registry, under the
   registry's current prefix (callers scope it, e.g. "fbs.cache.tfkc").
   Pull-probes: the record stays the single source of truth and the hot
   path is untouched. *)
let register_metrics t m =
  let open Fbsr_util.Metrics in
  let s = t.stats in
  register_probe m "hits" (fun () -> s.hits);
  register_probe m "misses.cold" (fun () -> s.misses_cold);
  register_probe m "misses.capacity" (fun () -> s.misses_capacity);
  register_probe m "misses.conflict" (fun () -> s.misses_conflict);
  register_probe m "misses.total" (fun () ->
      s.misses_cold + s.misses_capacity + s.misses_conflict);
  register_probe m "evictions" (fun () -> s.evictions);
  register_probe m "invalidations" (fun () -> s.invalidations)

let total_misses s = s.misses_cold + s.misses_capacity + s.misses_conflict
let accesses s = s.hits + total_misses s

let miss_rate t =
  let s = t.stats in
  let total = accesses s in
  if total = 0 then 0.0 else float_of_int (total_misses s) /. float_of_int total

let set_base t key = t.hash key mod t.sets * t.assoc

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

(* Move [n] to the head of the shadow LRU; when that grows the shadow past
   [capacity], drop the tail (the least recently touched key). *)
let shadow_touch t n =
  if n.linked then unlink n
  else begin
    n.linked <- true;
    t.shadow_size <- t.shadow_size + 1
  end;
  let head = t.lru.next in
  n.next <- head;
  n.prev <- t.lru;
  head.prev <- n;
  t.lru.next <- n;
  if t.shadow_size > capacity t then begin
    let victim = t.lru.prev in
    unlink victim;
    victim.linked <- false;
    t.shadow_size <- t.shadow_size - 1
  end

(* The key's shadow node, created (unseen, unlinked) on first touch. *)
let shadow_node t key =
  match Hashtbl.find t.nodes key with
  | n -> n
  | exception Not_found ->
      let n = { prev = t.lru; next = t.lru; linked = false; seen = false } in
      Hashtbl.add t.nodes key n;
      n

let classify_miss t n =
  if not n.seen then begin
    n.seen <- true;
    t.stats.misses_cold <- t.stats.misses_cold + 1
  end
  else if n.linked then t.stats.misses_conflict <- t.stats.misses_conflict + 1
  else t.stats.misses_capacity <- t.stats.misses_capacity + 1

(* Has this key ever missed in this cache?  (Population happens on first
   miss, so for find-before-insert access patterns this means "ever
   accessed".)  Survives {!clear}: it is the memory that lets a caller
   distinguish a compulsory first computation from a *recomputation* after
   soft-state loss.  Always false when classification is disabled. *)
let was_seen t key =
  match Hashtbl.find t.nodes key with n -> n.seen | exception Not_found -> false

let find t key =
  t.tick <- t.tick + 1;
  let base = set_base t key in
  let result = ref None and hit_node = ref t.lru in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key ->
        slot.last_used <- t.tick;
        result := slot.found;
        hit_node := slot.node
    | Some _ | None -> ()
  done;
  (match !result with
  | Some _ ->
      t.stats.hits <- t.stats.hits + 1;
      if t.classify then shadow_touch t !hit_node
  | None ->
      if t.classify then begin
        let n = shadow_node t key in
        classify_miss t n;
        shadow_touch t n
      end
      else t.stats.misses_capacity <- t.stats.misses_capacity + 1);
  !result

(* Probe without affecting statistics or LRU state. *)
let peek t key =
  let base = set_base t key in
  let result = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key -> result := slot.found
    | Some _ | None -> ()
  done;
  !result

let victim_index t base =
  (* Pick the way to evict according to the replacement policy. *)
  match t.replacement with
  | Random rng -> base + Fbsr_util.Rng.int rng t.assoc
  | Lru | Fifo ->
      let metric slot =
        match t.replacement with Fifo -> slot.inserted | _ -> slot.last_used
      in
      let best = ref base in
      for way = 1 to t.assoc - 1 do
        match (t.slots.(base + way), t.slots.(!best)) with
        | Some s, Some b when metric s < metric b -> best := base + way
        | _ -> ()
      done;
      !best

let insert t key value =
  t.tick <- t.tick + 1;
  let base = set_base t key in
  (* Reuse an existing slot for the key, else an empty way, else evict. *)
  let existing = ref None and empty = ref None in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key -> existing := Some (base + way)
    | Some _ -> ()
    | None -> if !empty = None then empty := Some (base + way)
  done;
  let idx =
    match (!existing, !empty) with
    | Some i, _ -> i
    | None, Some i -> i
    | None, None ->
        t.stats.evictions <- t.stats.evictions + 1;
        if Fbsr_util.Trace.enabled t.trace then
          Fbsr_util.Trace.emit t.trace "fbs.cache.evict"
            [
              ("cache", Fbsr_util.Json.String t.name);
              ("evictions", Fbsr_util.Json.Int t.stats.evictions);
            ];
        victim_index t base
  in
  let n = if t.classify then shadow_node t key else t.lru in
  t.slots.(idx) <-
    Some { key; found = Some value; node = n; last_used = t.tick; inserted = t.tick };
  if t.classify then shadow_touch t n

let invalidate t key =
  let base = set_base t key in
  for way = 0 to t.assoc - 1 do
    match t.slots.(base + way) with
    | Some slot when t.equal slot.key key ->
        t.slots.(base + way) <- None;
        t.stats.invalidations <- t.stats.invalidations + 1
    | Some _ | None -> ()
  done

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  (* Empty the shadow; the nodes (and their [seen] bits) stay.  An
     unlinked node's [prev]/[next] are dead until [shadow_touch] relinks
     it, so only the flags need resetting. *)
  let rec drop n =
    if n != t.lru then begin
      n.linked <- false;
      drop n.next
    end
  in
  drop t.lru.next;
  t.lru.next <- t.lru;
  t.lru.prev <- t.lru;
  t.shadow_size <- 0

let iter t f =
  Array.iter (function Some { key; found = Some v; _ } -> f key v | _ -> ()) t.slots

let fold t f acc =
  Array.fold_left
    (fun acc -> function Some { key; found = Some v; _ } -> f key v acc | _ -> acc)
    acc t.slots

let occupancy t =
  Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 t.slots

let pp_stats ppf s =
  Fmt.pf ppf "hits=%d cold=%d capacity=%d conflict=%d evictions=%d" s.hits s.misses_cold
    s.misses_capacity s.misses_conflict s.evictions
