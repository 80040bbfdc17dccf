(** Version compatibility shim over OCaml 5 Domains.

    The sharded datapath ({!Fbsr_fbs.Sharded}) wants one domain per shard
    on OCaml 5 and a plain sequential loop on 4.14, where the Domain
    module does not exist.  Dune selects one of two implementations at
    build time ([domain_shim_multicore.ml-in] on >= 5.0.0,
    [domain_shim_single.ml-in] otherwise), so everything above this
    module is version-independent.

    Setting the environment variable [FBSR_FORCE_SINGLE_SHARD] to a
    non-empty value other than ["0"] forces the sequential path even on
    OCaml 5 — CI uses this to prove the degraded single-shard behaviour
    on a Domains-capable runtime. *)

val parallelism_available : bool
(** [true] iff {!parallel_run} may actually run thunks concurrently.
    [false] on OCaml 4.14 and under [FBSR_FORCE_SINGLE_SHARD]. *)

val recommended_domain_count : unit -> int
(** [Domain.recommended_domain_count ()] on OCaml 5 (clamped to 1 when
    parallelism is forced off); always [1] on 4.14. *)

type 'a local
(** Domain-local storage: one value per domain on OCaml 5 (via
    [Domain.DLS]), a single mutable cell on 4.14 where there is only
    ever one domain. *)

val local_make : (unit -> 'a) -> 'a local
(** [local_make init] creates a slot; [init] runs (per domain, lazily,
    on OCaml 5) to produce the initial value. *)

val local_get : 'a local -> 'a
val local_set : 'a local -> 'a -> unit

val parallel_run : (unit -> 'a) array -> 'a array
(** [parallel_run thunks] runs every thunk and returns their results in
    order.  On OCaml 5 thunk 0 runs on the calling domain and thunk [i]
    on worker [i - 1] of a process-wide pool.  The pool is grown lazily
    to the largest [n - 1] ever requested and its workers live, parked
    on a mutex and condition between calls, until the process exits, so
    each worker's domain-local state (the {!local_make} crypto scratch)
    is built once, not once per call.  On 4.14, when parallelism is
    unavailable, with fewer than two thunks, or when the pool is already
    in use — a nested call from inside a thunk, or another domain's
    concurrent call — the thunks run sequentially on the calling domain
    instead, under the same contract.  If any thunk raises, every other
    thunk still runs to completion (the call returns only after every
    worker has finished) and the lowest-index exception is re-raised
    afterwards; the worker that ran the raising thunk keeps serving. *)
