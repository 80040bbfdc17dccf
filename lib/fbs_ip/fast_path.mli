(** The Section 7.2 combined FST+TFKC fast path: one direct-mapped table
    probe serves both flow association and flow-key lookup; the sweeper is
    implicit in the THRESHOLD check.  Each slot caches the engine's
    {!Fbsr_fbs.Engine.flow_entry} (flow key, cipher schedule, MAC
    midstate), so a hit seals through {!Fbsr_fbs.Engine.send_flow}
    without re-expanding keys, however flows interleave. *)

type t

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
}

val create : ?size:int -> ?threshold:float -> alloc:Fbsr_fbs.Sfl.allocator -> unit -> t
val counters : t -> counters

type lookup =
  | Hit of Fbsr_fbs.Sfl.t * Fbsr_fbs.Engine.flow_entry
      (** Active slot: its sfl and cached flow entry. *)
  | Miss of Fbsr_fbs.Sfl.t
      (** New flow (or one whose derivation is in flight): the entry must
          be derived and installed. *)

val lookup :
  t ->
  now:float ->
  protocol:int ->
  src:string ->
  src_port:int ->
  dst:string ->
  dst_port:int ->
  lookup

val install_entry : t -> sfl:Fbsr_fbs.Sfl.t -> entry:Fbsr_fbs.Engine.flow_entry -> unit
(** Cache a derived entry ({!Fbsr_fbs.Engine.derive_flow_key}) in the
    slot holding [sfl]; a no-op if the slot has been reused meanwhile. *)

val active : t -> now:float -> int
