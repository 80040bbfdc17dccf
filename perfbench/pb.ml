(* Shared plumbing for the whole-path benchmark: the monotonic clock,
   order statistics, GC readings, the span recorder and the outcome
   record every unit returns. *)

(* Bechamel's CLOCK_MONOTONIC reading, in integer nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time_ns f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* --- order statistics ---------------------------------------------- *)

(* Linear-interpolated quantile of an unsorted sample (copied, then
   sorted); [nan] on an empty sample. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. Float.of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. Float.of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let mean (xs : float array) =
  if Array.length xs = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

(* A growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* --- GC ------------------------------------------------------------ *)

(* Program-wide GC counters.  On OCaml 5 each domain folds its minor
   allocation into the shared statistics only at a minor collection, so a
   forced [Gc.minor] first makes the reading exact for every domain (the
   method of the bench binary's [allocated_bytes_exact]). *)
type gc = { minor_words : float; minor_gcs : int; major_gcs : int }

let gc_read () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

(* --- unit outcome -------------------------------------------------- *)

(* What one unit did.  [legit] datagrams were offered for delivery,
   [delivered] of them arrived intact exactly once, [tampered] wires were
   offered that must be refused, and [failed] counts every violation:
   a legitimate datagram not delivered intact exactly once, a tampered
   wire accepted or refused for the wrong cause, or a conservation
   breach (see [engine_balance]).  [latency_ns] is the unit's wall time. *)
type outcome = {
  legit : int;
  delivered : int;
  tampered : int;
  failed : int;
  latency_ns : int;
}

(* Conservation for one engine between two counter snapshots: every
   datagram that entered receive was accepted or dropped with a cause. *)
let engine_balance (c0 : Fbsr_fbs.Engine.counters) (c1 : Fbsr_fbs.Engine.counters) =
  let open Fbsr_fbs.Engine in
  let received = c1.receives - c0.receives in
  let accepted = c1.accepted - c0.accepted in
  let dropped = drops c1 - drops c0 in
  received = accepted + dropped

(* A frozen copy of an engine's (mutable) counters record. *)
let snapshot (c : Fbsr_fbs.Engine.counters) = { c with Fbsr_fbs.Engine.sends = c.sends }

(* Violations a report line should name; kept short so a failing run
   stays readable. *)
let violations = ref []

let violation fmt =
  Printf.ksprintf
    (fun s -> if List.length !violations < 20 then violations := s :: !violations)
    fmt

(* --- spans --------------------------------------------------------- *)

(* The traced run's span recorder.  Spans are recorded from the
   benchmark's own code, around its calls into each layer's public
   functions, on the integer-ns monotonic clock.  Every span carries a
   name, start, end, its parent's id (0 for a root) and the trace id of
   the unit it belongs to.  Self time — duration minus the time covered
   by direct children — is aggregated per name for every span; the raw
   records of the first [keep_traces] traced units are kept for the
   artifact.
   When disabled, [span] is a direct call. *)
module Spans = struct
  type record = {
    name : string;
    trace : int;
    id : int;
    parent : int;
    start_ns : int;
    end_ns : int;
  }

  type frame = { f_id : int; mutable f_children_ns : int }

  type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

  type t = {
    mutable enabled : bool;
    mutable trace : int;
    mutable next_id : int;
    mutable stack : frame list;
    mutable kept : record list;
    aggs : (string, agg) Hashtbl.t;
  }

  let keep_traces = 16

  let create () =
    {
      enabled = false;
      trace = 0;
      next_id = 1;
      stack = [];
      kept = [];
      aggs = Hashtbl.create 32;
    }

  let set_enabled t b = t.enabled <- b
  let new_trace t = if t.enabled then t.trace <- t.trace + 1

  let span t name f =
    if not t.enabled then f ()
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.stack with fr :: _ -> fr.f_id | [] -> 0 in
      let fr = { f_id = id; f_children_ns = 0 } in
      t.stack <- fr :: t.stack;
      let start_ns = now_ns () in
      let v = f () in
      let end_ns = now_ns () in
      (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
      let dur = end_ns - start_ns in
      (match t.stack with
      | up :: _ -> up.f_children_ns <- up.f_children_ns + dur
      | [] -> ());
      let a =
        match Hashtbl.find_opt t.aggs name with
        | Some a -> a
        | None ->
            let a = { count = 0; total_ns = 0; self_ns = 0 } in
            Hashtbl.replace t.aggs name a;
            a
      in
      a.count <- a.count + 1;
      a.total_ns <- a.total_ns + dur;
      a.self_ns <- a.self_ns + (dur - fr.f_children_ns);
      if t.trace <= keep_traces then
        t.kept <- { name; trace = t.trace; id; parent; start_ns; end_ns } :: t.kept;
      v
    end

  (* [(count, total_ns, self_ns)] of every span named [name]. *)
  let totals t name =
    match Hashtbl.find_opt t.aggs name with
    | Some a -> (a.count, a.total_ns, a.self_ns)
    | None -> (0, 0, 0)

  let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.aggs [] |> List.sort compare

  let records t = List.rev t.kept
end

(* --- layer counters ------------------------------------------------ *)

(* The pieces of a workload instance whose counters the per-layer
   metrics and the determinism check read. *)
type parts = {
  tx_engines : Fbsr_fbs.Engine.t list;  (** sending side: TFKC *)
  rx_engines : Fbsr_fbs.Engine.t list;  (** receiving side: RFKC, drops, replay *)
  fams : Fbsr_fbs.Fam.t list;  (** where classification happens *)
  hosts : Fbsr_netsim.Host.t list;
  stacks : Fbsr_fbs_ip.Stack.t list;
  mkds : Fbsr_fbs_ip.Mkd.t list;
}

let no_parts =
  { tx_engines = []; rx_engines = []; fams = []; hosts = []; stacks = []; mkds = [] }

let merge_parts a b =
  {
    tx_engines = a.tx_engines @ b.tx_engines;
    rx_engines = a.rx_engines @ b.rx_engines;
    fams = a.fams @ b.fams;
    hosts = a.hosts @ b.hosts;
    stacks = a.stacks @ b.stacks;
    mkds = a.mkds @ b.mkds;
  }

(* The engine's receive-side drop causes, in [Engine.drops_by_cause]
   order. *)
let drop_causes = [ "header"; "stale"; "duplicate"; "keying"; "mac"; "decrypt" ]

(* Cumulative counters, summed over every part, by name. *)
let counters p =
  let module E = Fbsr_fbs.Engine in
  let module C = Fbsr_fbs.Cache in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let cache get l =
    let hits = sum (fun e -> (C.stats (get e)).C.hits) l in
    (hits, hits + sum (fun e -> C.total_misses (C.stats (get e))) l)
  in
  let tfkc_hits, tfkc_acc = cache E.tfkc p.tx_engines in
  let rfkc_hits, rfkc_acc = cache E.rfkc p.rx_engines in
  let all = p.tx_engines @ p.rx_engines in
  let stack f = sum (fun s -> f (Fbsr_fbs_ip.Stack.counters s)) p.stacks in
  let mkd f = sum (fun m -> f (Fbsr_fbs_ip.Mkd.stats m)) p.mkds in
  [
    ("fam.datagrams", sum (fun f -> (Fbsr_fbs.Fam.stats f).Fbsr_fbs.Fam.datagrams) p.fams);
    ("fam.flows_started", sum (fun f -> (Fbsr_fbs.Fam.stats f).Fbsr_fbs.Fam.flows_started) p.fams);
    ("tfkc.hits", tfkc_hits);
    ("tfkc.accesses", tfkc_acc);
    ("rfkc.hits", rfkc_hits);
    ("rfkc.accesses", rfkc_acc);
    ("derivations", sum (fun e -> (E.counters e).E.flow_key_computations) all);
    ("allocs", sum (fun e -> (E.counters e).E.datapath_allocs) all);
    ("receives", sum (fun e -> (E.counters e).E.receives) p.rx_engines);
    ("accepted", sum (fun e -> (E.counters e).E.accepted) p.rx_engines);
  ]
  @ List.map
      (fun cause ->
        ( "drops." ^ cause,
          sum (fun e -> List.assoc cause (E.drops_by_cause (E.counters e))) p.rx_engines ))
      drop_causes
  @ [
      ( "replay.rejects",
        sum
          (fun e ->
            let r = Fbsr_fbs.Replay.stats (E.replay e) in
            r.Fbsr_fbs.Replay.rejected_stale + r.Fbsr_fbs.Replay.rejected_duplicate)
          p.rx_engines );
      ( "fragments",
        sum (fun h -> (Fbsr_netsim.Host.stats h).Fbsr_netsim.Host.fragments_out) p.hosts );
      ("suspended_in", stack (fun c -> c.Fbsr_fbs_ip.Stack.suspended_in));
      ("suspended_out", stack (fun c -> c.Fbsr_fbs_ip.Stack.suspended_out));
      ("mkd.fetches", mkd (fun s -> s.Fbsr_fbs_ip.Mkd.fetches));
      ("mkd.retransmissions", mkd (fun s -> s.Fbsr_fbs_ip.Mkd.retransmissions));
    ]

(* [b - a], name by name. *)
let counters_diff a b = List.map2 (fun (k, x) (_, y) -> (k, y - x)) a b
