(* Whole-path workload benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload as a closed loop (one unit at a time) through the
   public APIs, checks every output, and prints as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the loop runs half
   its time untraced and half with spans and layer probes, and the
   metrics are the per-layer ones.  A summary artifact (with the spans of
   a traced run) goes to perfbench/_out/.

   Every run sets up several sites and reports the median set-up time.
   The first two share the seed: a fixed number of units on each must
   leave identical counts (the determinism check); the others take the
   next seeds, so the median does not rest on one seed's key generation.
   Warm workloads then time the last site; cold-peers times new peers
   from every site. *)

module type WORKLOAD = sig
  type t

  val name : string

  val sites : int
  (** Sites set up per run (at least 3). *)

  val det_units : int
  val setup : seed:int -> seconds:int -> t
  val run_unit : Pb.Spans.t -> t -> Pb.outcome

  val remaining : t -> int option
  (** Units left before the site is used up; [None] if unbounded. *)

  val parts : t -> Pb.parts
  val add_host_ns : t -> int list
  val kit : seed:int -> Probe.kit
  (** The traced run's probes, given the seed of the last site. *)

  val probe : Probe.kit -> Pb.Spans.t -> t -> unit

  val waterfall :
    per_unit:(string -> float) ->
    mean:(string -> float) ->
    count_per_unit:(string -> float) ->
    (string * float * int) list
  (** [(layer, ns per unit, depth)]: depth-0 layers are disjoint and are
      subtracted from the unit time to leave the unattributed remainder;
      depth-1 lines break down the layer above them. *)
end

let workloads : (string * (module WORKLOAD)) list =
  [
    (Stack_mtu.name, (module Stack_mtu));
    (Zipf_sharded.name, (module Zipf_sharded));
    (Cold_peers.name, (module Cold_peers));
  ]

(* --- one timed phase ----------------------------------------------- *)

type phase = {
  latencies : float array;  (** per unit, microseconds *)
  units : int;
  legit : int;
  delivered : int;
  wall_ns : int;
  gc : Pb.gc;
  live_growth : int;  (** live major-heap words gained over the phase *)
  counts : (string * int) list;  (** counter deltas over the phase *)
}

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = Float.of_int

(* The end-to-end metrics, in output order. *)
let end_to_end =
  [
    ("throughput_dps", "1/s");
    ("unit_p50_us", "us");
    ("unit_p90_us", "us");
    ("minor_words_per_dgram", "words");
    ("setup_s", "s");
  ]

(* The per-layer metrics, in output order. *)
let per_layer =
  [
    ("crypto.seal_ns_per_byte", "ns/B");
    ("crypto.open_ns_per_byte", "ns/B");
    ("crypto.dh_shared_ms", "ms");
    ("bignum.to_bytes_ms", "ms");
    ("cert.verify_us", "us");
    ("fam.classify_ns", "ns");
    ("fam.new_flow_ratio", "ratio");
    ("cache.tfkc_hit_ratio", "ratio");
    ("cache.rfkc_hit_ratio", "ratio");
    ("keying.flow_key_ns", "ns");
    ("keying.derivations_per_dgram", "count");
    ("engine.seal_ns", "ns");
    ("engine.open_ns", "ns");
    ("engine.allocs_per_dgram", "count");
  ]
  @ List.map (fun c -> ("engine.drops." ^ c, "count/kdgram")) Pb.drop_causes
  @ [
      ("replay.rejects", "count/kdgram");
      ("sharded.send_all_us", "us");
      ("sharded.receive_all_us", "us");
      ("sharded.fanout_join_us", "us");
      ("sharded.speedup_vs_1shard", "x");
      ("netsim.ns_per_dgram", "ns");
      ("netsim.fragments_per_dgram", "count");
      ("stack.unattributed_ns_per_dgram", "ns");
      ("stack.suspended_in", "count/unit");
      ("stack.suspended_out", "count/unit");
      ("mkd.fetches_per_peer", "count");
      ("mkd.retransmissions", "count/unit");
      ("gc.minor_collections_per_kdgram", "count");
      ("gc.major_collections_per_kdgram", "count");
      ("gc.live_words_growth_per_dgram", "words");
      ("setup.add_host_ms", "ms");
      ("trace.overhead_us", "us");
      ("waterfall.unattributed_share", "ratio");
    ]

let out_dir = Filename.concat "perfbench" "_out"

let run (module W : WORKLOAD) ~seed ~seconds ~trace =
  let sp = Pb.Spans.create () in
  let attempted = ref 0 and failed = ref 0 in
  let account (o : Pb.outcome) =
    attempted := !attempted + o.Pb.legit + o.Pb.tampered;
    failed := !failed + o.Pb.failed
  in
  (* Set-up: the first two sites are twins. *)
  let seeds = Array.init W.sites (fun k -> if k = 0 then seed else seed + k - 1) in
  let last = W.sites - 1 in
  let built = Array.map (fun s -> Pb.time_ns (fun () -> W.setup ~seed:s ~seconds)) seeds in
  let setup_s = Array.map (fun (_, ns) -> fi ns /. 1e9) built in
  (* Determinism: the same units on every site; the twins must agree on
     every count and on the minor words per datagram.  The last site
     goes first, so process-wide first-use costs (lazy tables, scratch
     buffers sized on first use) land outside the comparison. *)
  let fingerprint inst =
    let c0 = Pb.counters (W.parts inst) in
    let g0 = Pb.gc_read () in
    let delivered = ref 0 in
    for _ = 1 to W.det_units do
      let o = W.run_unit sp inst in
      account o;
      delivered := !delivered + o.Pb.delivered
    done;
    let g = Pb.gc_diff g0 (Pb.gc_read ()) in
    let c = Pb.counters_diff c0 (Pb.counters (W.parts inst)) in
    (("delivered", !delivered) :: c, div g.Pb.minor_words (fi !delivered))
  in
  let fps = Array.map (fun k -> fingerprint (fst built.(k))) [| last; 0; 1 |] in
  let deterministic = fps.(1) = fps.(2) in
  if not deterministic then begin
    incr failed;
    Pb.violation "determinism: two runs of seed %d disagree" seed
  end;
  let active =
    match W.remaining (fst built.(0)) with
    | None -> [| fst built.(last) |]
    | Some _ -> Array.map fst built
  in
  let parts () = Array.fold_left (fun acc i -> Pb.merge_parts acc (W.parts i)) Pb.no_parts active in
  let next () =
    let rec go k =
      if k >= Array.length active then None
      else
        match W.remaining active.(k) with
        | Some 0 -> go (k + 1)
        | _ -> Some active.(k)
    in
    go 0
  in
  let phase ~budget_ns ~kit =
    Pb.Spans.set_enabled sp (Option.is_some kit);
    (* Start from a collected heap, so set-up's or the previous phase's
       garbage is not collected on this phase's clock. *)
    Gc.compact ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let lat = Pb.Sample.create () in
    let legit = ref 0 and delivered = ref 0 in
    let c0 = Pb.counters (parts ()) in
    let g0 = Pb.gc_read () in
    let t0 = Pb.now_ns () in
    let rec loop () =
      if Pb.now_ns () - t0 < budget_ns then
        match next () with
        | None -> ()
        | Some inst ->
            Pb.Spans.new_trace sp;
            let o = Pb.Spans.span sp "unit" (fun () -> W.run_unit sp inst) in
            account o;
            legit := !legit + o.Pb.legit;
            delivered := !delivered + o.Pb.delivered;
            Pb.Sample.add lat (fi o.Pb.latency_ns /. 1e3);
            Option.iter (fun k -> W.probe k sp inst) kit;
            loop ()
    in
    loop ();
    let wall_ns = Pb.now_ns () - t0 in
    let gc = Pb.gc_diff g0 (Pb.gc_read ()) in
    Pb.Spans.set_enabled sp false;
    Gc.compact ();
    let live_growth = (Gc.stat ()).Gc.live_words - live0 in
    {
      latencies = Pb.Sample.to_array lat;
      units = Pb.Sample.length lat;
      legit = !legit;
      delivered = !delivered;
      wall_ns;
      gc;
      live_growth;
      counts = Pb.counters_diff c0 (Pb.counters (parts ()));
    }
  in
  let budget = seconds * 1_000_000_000 in
  let report = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string report s; Buffer.add_char report '\n') fmt in
  line "%s seed %d: set-up %s s (median %.3f)" W.name seed
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_s)))
    (Pb.median setup_s);
  line "determinism (%d units, twice): %s" W.det_units
    (if deterministic then "identical counts" else "MISMATCH");
  let metrics, artifact =
    if trace = 0 then begin
      let p = phase ~budget_ns:budget ~kit:None in
      let p50 = Pb.median p.latencies and p90 = Pb.quantile p.latencies 0.9 in
      line "timed: %d units, %d datagrams delivered in %.3f s; p90 from %d samples (%d beyond it)%s"
        p.units p.delivered (fi p.wall_ns /. 1e9) p.units
        (p.units - int_of_float (Float.ceil (0.9 *. fi p.units)))
        (if Option.is_none (next ()) then "; every site used up before the time ran out" else "");
      let values =
        [
          ("throughput_dps", div (fi p.delivered) (fi p.wall_ns /. 1e9));
          ("unit_p50_us", p50);
          ("unit_p90_us", p90);
          ("minor_words_per_dgram", div p.gc.Pb.minor_words (fi p.delivered));
          ("setup_s", Pb.median setup_s);
        ]
      in
      let open Fbsr_util.Json in
      ( values,
        [
          ("units", Int p.units);
          ( "unit_us_percentiles",
            Obj
              (List.map
                 (fun q -> (Printf.sprintf "p%02d" q, Float (Pb.quantile p.latencies (fi q /. 100.0))))
                 [ 0; 5; 10; 25; 50; 75; 90; 95; 99; 100 ]) );
        ] )
    end
    else begin
      let pu = phase ~budget_ns:(budget / 2) ~kit:None in
      let kit = W.kit ~seed:seeds.(last) in
      let pt = phase ~budget_ns:(budget / 2) ~kit:(Some kit) in
      if kit.Probe.failures > 0 then failed := !failed + kit.Probe.failures;
      let count name ph = fi (List.assoc name ph.counts) in
      let per_dgram name = div (count name pu) (fi pu.legit) in
      let per_kdgram name = 1000.0 *. per_dgram name in
      let per_unit_u name = div (count name pu) (fi pu.units) in
      let total name = let _, tot, _ = Pb.Spans.totals sp name in fi tot in
      let mean name =
        let n, tot, _ = Pb.Spans.totals sp name in
        div (fi tot) (fi n)
      in
      let per_unit name = div (total name) (fi pt.units) in
      let count_per_unit name = div (count name pt) (fi pt.units) in
      let layers = W.waterfall ~per_unit ~mean ~count_per_unit in
      let unit_ns = 1e3 *. Pb.mean pt.latencies in
      let attributed =
        List.fold_left (fun acc (_, ns, d) -> if d = 0 then acc +. ns else acc) 0.0 layers
      in
      let unattributed = unit_ns -. attributed in
      line "waterfall (%d traced units, us per unit): total %.1f" pt.units (unit_ns /. 1e3);
      List.iter
        (fun (l, ns, d) ->
          line "  %s%-14s %10.1f  %5.1f%%" (String.make (2 * d) ' ') l (ns /. 1e3)
            (100.0 *. div ns unit_ns))
        layers;
      line "  %-14s %10.1f  %5.1f%%" "unattributed" (unattributed /. 1e3)
        (100.0 *. div unattributed unit_ns);
      let ratio hits acc = div (count hits pu) (count acc pu) in
      let add_host =
        let l = List.concat_map W.add_host_ns (Array.to_list active) in
        let l = if l = [] then kit.Probe.side_add_host_ns else l in
        Pb.median (Array.of_list (List.map (fun ns -> fi ns /. 1e6) l))
      in
      let values =
        [
          ("crypto.seal_ns_per_byte", div (total "crypto.seal") (fi kit.Probe.crypto_bytes));
          ("crypto.open_ns_per_byte", div (total "crypto.open") (fi kit.Probe.crypto_bytes));
          ("crypto.dh_shared_ms", mean "bignum.dh_shared" /. 1e6);
          ("bignum.to_bytes_ms", mean "bignum.to_bytes" /. 1e6);
          ("cert.verify_us", mean "cert.verify" /. 1e3);
          ("fam.classify_ns", mean "fam.classify");
          ("fam.new_flow_ratio", ratio "fam.flows_started" "fam.datagrams");
          ("cache.tfkc_hit_ratio", ratio "tfkc.hits" "tfkc.accesses");
          ("cache.rfkc_hit_ratio", ratio "rfkc.hits" "rfkc.accesses");
          ("keying.flow_key_ns", mean "keying.flow_key");
          ("keying.derivations_per_dgram", per_dgram "derivations");
          ("engine.seal_ns", mean "engine.seal");
          ("engine.open_ns", mean "engine.open");
          ("engine.allocs_per_dgram", per_dgram "allocs");
        ]
        @ List.map (fun c -> ("engine.drops." ^ c, per_kdgram ("drops." ^ c))) Pb.drop_causes
        @ [
            ("replay.rejects", per_kdgram "replay.rejects");
            ("sharded.send_all_us", mean "sharded.send_all" /. 1e3);
            ("sharded.receive_all_us", mean "sharded.receive_all" /. 1e3);
            ("sharded.fanout_join_us", mean "sharded.fanout_join" /. 1e3);
            ( "sharded.speedup_vs_1shard",
              div
                (total "sharded1.send_all" +. total "sharded1.receive_all")
                (total "sharded.send_all" +. total "sharded.receive_all") );
            ("netsim.ns_per_dgram", div (total "netsim.plain_burst") (fi kit.Probe.plain_sent));
            ("netsim.fragments_per_dgram", per_dgram "fragments");
            ("stack.unattributed_ns_per_dgram", div unattributed (div (fi pt.legit) (fi pt.units)));
            ("stack.suspended_in", per_unit_u "suspended_in");
            ("stack.suspended_out", per_unit_u "suspended_out");
            ("mkd.fetches_per_peer", per_unit_u "mkd.fetches");
            ("mkd.retransmissions", per_unit_u "mkd.retransmissions");
            ("gc.minor_collections_per_kdgram", 1000.0 *. div (fi pu.gc.Pb.minor_gcs) (fi pu.legit));
            ("gc.major_collections_per_kdgram", 1000.0 *. div (fi pu.gc.Pb.major_gcs) (fi pu.legit));
            ("gc.live_words_growth_per_dgram", div (fi pu.live_growth) (fi pu.legit));
            ("setup.add_host_ms", add_host);
            ("trace.overhead_us", Pb.median pt.latencies -. Pb.median pu.latencies);
            ("waterfall.unattributed_share", div unattributed unit_ns);
          ]
      in
      let open Fbsr_util.Json in
      let span_json (r : Pb.Spans.record) =
        Obj
          [
            ("name", String r.Pb.Spans.name);
            ("trace", Int r.Pb.Spans.trace);
            ("id", Int r.Pb.Spans.id);
            ("parent", Int r.Pb.Spans.parent);
            ("start_ns", Int r.Pb.Spans.start_ns);
            ("end_ns", Int r.Pb.Spans.end_ns);
          ]
      in
      ( values,
        [
          ("untraced_units", Int pu.units);
          ("traced_units", Int pt.units);
          ( "waterfall_ns_per_unit",
            Obj
              ((("total", Float unit_ns)
               :: List.map (fun (l, ns, d) -> ((if d = 0 then l else "  " ^ l), Float ns)) layers)
              @ [ ("unattributed", Float unattributed) ]) );
          ( "spans",
            Obj
              (List.map
                 (fun n ->
                   let c, tot, self = Pb.Spans.totals sp n in
                   (n, Obj [ ("count", Int c); ("total_ns", Int tot); ("self_ns", Int self) ]))
                 (Pb.Spans.names sp)) );
          ("kept_spans", List (List.map span_json (Pb.Spans.records sp)));
        ] )
    end
  in
  let correct = !failed = 0 && deterministic in
  print_string (Buffer.contents report);
  List.iter (fun v -> Printf.printf "violation: %s\n" v) (List.rev !Pb.violations);
  let table = if trace = 0 then end_to_end else per_layer in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = List.assoc name metrics in
        Printf.printf "%-34s %16.4f %s\n" name v unit;
        (name, v, unit))
      table
  in
  let open Fbsr_util.Json in
  let metrics_json =
    Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Float v); ("unit", String u) ])) metrics)
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.json" W.name seed trace) in
     Out_channel.with_open_text path (fun oc ->
         output_string oc
           (to_string_pretty
              (Obj
                 ([
                    ("workload", String W.name);
                    ("seed", Int seed);
                    ("seconds", Int seconds);
                    ("trace", Int trace);
                    ("correct", Bool correct);
                    ("setup_s", List (Array.to_list (Array.map (fun x -> Float x) setup_s)));
                    ( "determinism",
                      List
                        (Array.to_list
                           (Array.map
                              (fun (c, w) ->
                                Obj
                                  (("minor_words_per_dgram", Float w)
                                  :: List.map (fun (k, v) -> (k, Int v)) c))
                              fps)) );
                    ("metrics", metrics_json);
                  ]
                 @ artifact))));
     Printf.printf "artifact: %s\n" path
   with Sys_error e -> Printf.printf "artifact not written: %s\n" e);
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int !attempted);
            ("failed", Int !failed);
            ("metrics", metrics_json);
          ]));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
  | Some w ->
      if not (run w ~seed:!seed ~seconds:!seconds ~trace:!trace) then exit 1
