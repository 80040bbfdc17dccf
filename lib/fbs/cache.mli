(** Generic soft-state cache: set-associative, LRU-within-set, pluggable
    randomising hash, three-C's miss classification (paper Section 5.3). *)

type stats = {
  mutable hits : int;
  mutable misses_cold : int;
  mutable misses_capacity : int;
  mutable misses_conflict : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type ('k, 'v) t

type replacement = Lru | Fifo | Random of Fbsr_util.Rng.t
(** Within-set replacement policy (Section 5.3 lists "a better replacement
    policy" among the levers against conflict misses). *)

val create :
  ?assoc:int ->
  ?classify:bool ->
  ?replacement:replacement ->
  ?name:string ->
  ?trace:Fbsr_util.Trace.t ->
  sets:int ->
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [classify] (default [true]) keeps the 3-C miss classification: a
    shadow fully-associative LRU of the same capacity plus the set of keys
    that ever missed, both in one key-indexed table with an intrusive
    recency list — O(1) per access, no allocation on a hit, one node per
    distinct key ever touched (kept for the cache's lifetime, {!clear}
    included).  [classify:false] skips it (no per-key memory; every miss
    counts as capacity).  Default replacement is [Lru].
    [name] labels the cache in metrics/trace output; [trace] (default
    disabled) receives an ["fbs.cache.evict"] event per eviction. *)

val name : ('k, 'v) t -> string

val register_metrics : ('k, 'v) t -> Fbsr_util.Metrics.t -> unit
(** Register pull-probes for every {!stats} field under the registry's
    current prefix ([hits], [misses.cold], [misses.capacity],
    [misses.conflict], [misses.total], [evictions], [invalidations]) —
    scope the registry first, e.g.
    [register_metrics c (Metrics.sub m "fbs.cache.tfkc")]. *)

val capacity : ('k, 'v) t -> int
val find : ('k, 'v) t -> 'k -> 'v option
(** Look up and count one access.  A hit allocates nothing: the returned
    option is the one built when the entry was inserted. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Like {!find} but does not touch statistics or LRU state. *)

val was_seen : ('k, 'v) t -> 'k -> bool
(** Whether this key has ever missed here (never cleared, soft-state-loss
    detector; always [false] when [classify:false]). *)

val insert : ('k, 'v) t -> 'k -> 'v -> unit
val invalidate : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit
(** Drop every entry and empty the shadow LRU; {!was_seen} memory stays. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
val fold : ('k, 'v) t -> ('k -> 'v -> 'a -> 'a) -> 'a -> 'a
val occupancy : ('k, 'v) t -> int

val stats : ('k, 'v) t -> stats
val total_misses : stats -> int
val accesses : stats -> int
val miss_rate : ('k, 'v) t -> float
val pp_stats : Format.formatter -> stats -> unit
