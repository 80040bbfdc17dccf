(* zipf-sharded: the smallest payload through the domain-sharded engine.
   Fixture.sharded_pair at one shard per core, fed a 65,536-flow Zipf(1.0)
   stream of 64-byte payloads.  A unit is one 256-datagram batch:
   Sharded.send_all, then Sharded.receive_all, with the simulated clock
   advancing between batches.  Of the wires handed to the receiver, 1 in
   16 has one bit flipped and 1 in 32 extra is a replay of a wire
   delivered in the previous batch (strict replay on), so the receive
   layer also runs its reject paths. *)

module Sharded = Fbsr_fbs.Sharded
module Engine = Fbsr_fbs.Engine

let name = "zipf-sharded"
let batch = 256
let zipf_flows = 65_536
let payload_len = 64
let flip_every = 16
let replay_every = 32
let sets = 4

(* Simulated seconds between batches: 30 batches per replay-window
   minute, so the strict-replay table reaches its steady size early. *)
let dt = 2.0

type kind = Legit of int | Flipped | Replay

type t = {
  pair : Fbsr_experiments.Fixture.sharded;
  wl : Fbsr_traffic.Zipf_workload.t;
  rng : Fbsr_util.Rng.t;
  payloads : string array array;
  header_len : int;
  mutable units : int;
  (* Legitimate wires of the previous batch: the replay source. *)
  mutable prev : string array;
  (* Most recent batch's inputs, for the traced run's layer probes. *)
  mutable last_jobs : (Fbsr_fbs.Fam.attrs * string) array;
  mutable last_rx_wires : string array;
  mutable last_now : float;
}

let nshards () = Fbsr_util.Domain_shim.recommended_domain_count ()

let make ~seed ~nshards =
  let pair =
    Fbsr_experiments.Fixture.sharded_pair ~seed ~nshards ~strict_replay:true ()
  in
  let wl =
    Fbsr_traffic.Zipf_workload.create ~seed:(seed lxor 0x21bf) ~flows:zipf_flows
      ~payload:(String.make payload_len 'z') ~src:pair.Fbsr_experiments.Fixture.sh_src
      ~dst:pair.Fbsr_experiments.Fixture.sh_dst ()
  in
  let rng = Fbsr_util.Rng.create (seed lxor 0x7a3f) in
  let payloads =
    Array.init sets (fun _ -> Array.init batch (fun _ -> Fbsr_util.Rng.bytes rng payload_len))
  in
  {
    pair;
    wl;
    rng;
    payloads;
    header_len = Engine.header_overhead (Sharded.engine pair.Fbsr_experiments.Fixture.tx 0);
    units = 0;
    prev = [||];
    last_jobs = [||];
    last_rx_wires = [||];
    last_now = 0.0;
  }

let tx t = t.pair.Fbsr_experiments.Fixture.tx
let rx t = t.pair.Fbsr_experiments.Fixture.rx
let src t = t.pair.Fbsr_experiments.Fixture.sh_src
let engines t = Array.to_list (Sharded.engines (tx t)) @ Array.to_list (Sharded.engines (rx t))

(* Flip one bit inside the first body blocks.  Those blocks are covered
   by the MAC and lie before the CBC padding block, so the only correct
   verdict is a MAC (or header) rejection. *)
let flip t wire =
  let body = String.length wire - t.header_len in
  let span = max 1 (body - 16) in
  let pos = t.header_len + Fbsr_util.Rng.int t.rng span in
  let b = Bytes.of_string wire in
  Bytes.set b pos
    (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Fbsr_util.Rng.int t.rng 8)));
  Bytes.unsafe_to_string b

let expected_reject kind (e : Engine.error) =
  match (kind, e) with
  | Flipped, (Engine.Bad_mac | Engine.Header_error _) -> true
  | Replay, Engine.Duplicate -> true
  | _ -> false

(* One batch; the timed part is send_all, the tamper pass and
   receive_all, each wrapped in a span. *)
let run_unit spans t =
  let now = 60.0 +. (dt *. Float.of_int t.units) in
  let payloads = t.payloads.(t.units mod sets) in
  t.units <- t.units + 1;
  let jobs =
    Array.mapi (fun i (a, _) -> (a, payloads.(i))) (Fbsr_traffic.Zipf_workload.batch t.wl batch)
  in
  let c0 = List.map (fun e -> Pb.snapshot (Engine.counters e)) (engines t) in
  let t0 = Pb.now_ns () in
  let sent =
    Pb.Spans.span spans "sharded.send_all" (fun () ->
        Sharded.send_all (tx t) ~now ~secret:true jobs)
  in
  let wires = Array.map (function Ok w -> w | Error _ -> "") sent in
  let kinds, rx_wires =
    Pb.Spans.span spans "bench.tamper" (fun () ->
        let kinds = ref [] and rx_wires = ref [] in
        let push k w =
          kinds := k :: !kinds;
          rx_wires := w :: !rx_wires
        in
        Array.iteri
          (fun i w ->
            if i mod flip_every = flip_every - 1 then push Flipped (flip t w)
            else push (Legit i) w;
            if i mod replay_every = replay_every - 1 && Array.length t.prev > 0 then
              push Replay t.prev.(Fbsr_util.Rng.int t.rng (Array.length t.prev)))
          wires;
        (Array.of_list (List.rev !kinds), Array.of_list (List.rev !rx_wires)))
  in
  let results =
    Pb.Spans.span spans "sharded.receive_all" (fun () ->
        Sharded.receive_all (rx t) ~now ~src:(src t) rx_wires)
  in
  let latency_ns = Pb.now_ns () - t0 in
  let legit = ref 0 and delivered = ref 0 and tampered = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Error e ->
          incr failed;
          Pb.violation "%s unit %d job %d: send failed: %s" name t.units i
            (Fmt.str "%a" Engine.pp_error e)
      | Ok _ -> ())
    sent;
  Array.iteri
    (fun k r ->
      match (kinds.(k), r) with
      | Legit i, Ok acc ->
          incr legit;
          if String.equal acc.Engine.payload payloads.(i) then incr delivered
          else begin
            incr failed;
            Pb.violation "%s unit %d job %d: payload corrupted" name t.units i
          end
      | Legit i, Error e ->
          incr legit;
          incr failed;
          Pb.violation "%s unit %d job %d: legitimate wire refused: %s" name t.units i
            (Fmt.str "%a" Engine.pp_error e)
      | (Flipped | Replay), Ok _ ->
          incr tampered;
          incr failed;
          Pb.violation "%s unit %d wire %d: tampered wire accepted" name t.units k
      | kind, Error e ->
          incr tampered;
          if not (expected_reject kind e) then begin
            incr failed;
            Pb.violation "%s unit %d wire %d: refused for the wrong cause: %s" name t.units k
              (Fmt.str "%a" Engine.pp_error e)
          end)
    results;
  List.iter2
    (fun c0 e ->
      if not (Pb.engine_balance c0 (Engine.counters e)) then begin
        incr failed;
        Pb.violation "%s unit %d: engine receive counters do not balance" name t.units
      end)
    c0 (engines t);
  (* The replay source: this batch's wires minus the flipped ones. *)
  t.prev <-
    Array.init
      (batch - (batch / flip_every))
      (fun k -> wires.(k + (k / (flip_every - 1))));
  t.last_jobs <- jobs;
  t.last_rx_wires <- rx_wires;
  t.last_now <- now;
  { Pb.legit = !legit; delivered = !delivered; tampered = !tampered; failed = !failed; latency_ns }

let warm_batches = 32

let setup ~seed ~seconds:_ =
  let t = make ~seed ~nshards:(nshards ()) in
  let sp = Pb.Spans.create () in
  for _ = 1 to warm_batches do
    ignore (run_unit sp t : Pb.outcome)
  done;
  t

let sites = 9
let det_units = 8
let remaining _ = None

let parts t =
  {
    Pb.no_parts with
    Pb.tx_engines = Array.to_list (Sharded.engines (tx t));
    rx_engines = Array.to_list (Sharded.engines (rx t));
    fams = [ Sharded.fam (tx t) ];
  }

(* No Testbed here: setup.add_host_ms comes from the probe kit's side
   testbed. *)
let add_host_ns _ = []

(* --- traced run --- *)

(* The timed site was built from [seed]: the 1-shard twin shares it. *)
let kit ~seed = Probe.create ~seed ~strict:true ~own:(`Sharded seed)

let probe kit sp t =
  let inputs =
    Array.map
      (fun (a, payload) ->
        { Probe.src_port = a.Fbsr_fbs.Fam.src_port; dst_port = a.Fbsr_fbs.Fam.dst_port; payload })
      t.last_jobs
  in
  Probe.run kit sp ~now:t.last_now ~keying:kit.Probe.side_keying
    ~sharded_batch:(t.last_jobs, t.last_rx_wires, src t)
    inputs

(* The dispatcher classifies on the calling domain; everything from the
   TFKC lookup on runs inside the shards, so the shadow engine's
   per-datagram work (minus its own classification) is spread over the
   shards — an attribution that assumes the crc32 sfl hash balances
   them. *)
let waterfall ~per_unit ~mean ~count_per_unit =
  let n = Float.of_int (nshards ()) in
  let shard_work =
    per_unit "engine.seal" -. per_unit "fam.classify" +. per_unit "engine.open"
  in
  [
    ("fam", per_unit "fam.classify", 0);
    ("shards", shard_work /. n, 0);
    ("crypto", (per_unit "crypto.seal" +. per_unit "crypto.open") /. n, 1);
    ("keying", mean "keying.flow_key" *. count_per_unit "derivations" /. n, 1);
    ("fanout_join", per_unit "sharded.fanout_join", 0);
    ("bench.tamper", per_unit "bench.tamper", 0);
  ]
