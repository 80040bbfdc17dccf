(* cold-peers: zero-message keying for a peer the server has never seen.
   One Testbed server plus a pool of peer hosts on Oakley group 2
   (group_bits = 1024), all enrolled during set-up.  A unit is one new
   peer sending 4 datagrams of 64 bytes to the server, timed from its
   first send to the server's 4th delivery: both sides miss the PVC,
   fetch the other's certificate from the key server over netsim through
   their MKD, verify it, compute the Diffie-Hellman master key and derive
   the flow key. *)

open Fbsr_netsim
module Tb = Fbsr_fbs_ip.Testbed
module Stack = Fbsr_fbs_ip.Stack

let name = "cold-peers"
let dgrams_per_unit = 4
let payload_len = 64
let src_port = 5000
let dst_port = 7000

type t = {
  tb : Tb.t;
  server : Tb.node;
  server_addr : Addr.t;
  peers : Tb.node array;
  payloads : string array array; (* per peer *)
  got : string array;
  got_n : int array;
  mutable got_from_ok : bool;
  mutable deliveries : int;
  mutable fourth_ns : int;
  mutable units : int;
  add_host_ns : int list;
}

let peer_addr i = Printf.sprintf "10.1.%d.%d" (i / 200) ((i mod 200) + 1)

let build ~seed ~peers =
  let tb = Tb.create ~seed ~group_bits:1024 () in
  let server = Tb.add_host tb ~name:"server" ~addr:"10.0.1.1" in
  let timed =
    Array.init peers (fun i ->
        Pb.time_ns (fun () -> Tb.add_host tb ~name:(Printf.sprintf "peer%d" i) ~addr:(peer_addr i)))
  in
  let rng = Fbsr_util.Rng.create (seed lxor 0xc01d) in
  let payloads =
    Array.init peers (fun _ ->
        Array.init dgrams_per_unit (fun k ->
            let b = Bytes.of_string (Fbsr_util.Rng.bytes rng payload_len) in
            Bytes.set b 0 (Char.chr k);
            Bytes.unsafe_to_string b))
  in
  let t =
    {
      tb;
      server;
      server_addr = Host.addr server.Tb.host;
      peers = Array.map fst timed;
      payloads;
      got = Array.make dgrams_per_unit "";
      got_n = Array.make dgrams_per_unit 0;
      got_from_ok = true;
      deliveries = 0;
      fourth_ns = 0;
      units = 0;
      add_host_ns = Array.to_list (Array.map snd timed);
    }
  in
  Udp_stack.listen server.Tb.host ~port:dst_port (fun ~src ~src_port:_ data ->
      let k = if String.length data > 0 then Char.code data.[0] else -1 in
      if k >= 0 && k < dgrams_per_unit then begin
        t.got.(k) <- data;
        t.got_n.(k) <- t.got_n.(k) + 1
      end;
      if t.units > 0
         && not (Addr.equal src (Host.addr t.peers.(t.units - 1).Tb.host))
      then t.got_from_ok <- false;
      t.deliveries <- t.deliveries + 1;
      if t.deliveries = dgrams_per_unit then t.fourth_ns <- Pb.now_ns ());
  t

let remaining t = Some (Array.length t.peers - t.units)

let stack_balanced s =
  let c = Stack.counters s in
  c.Stack.suspended_in + c.Stack.suspended_out = c.Stack.resumed
  && c.Stack.dropped_error = 0

let run_unit sp t =
  if t.units >= Array.length t.peers then failwith "cold-peers: peer pool exhausted";
  let i = t.units in
  let peer = t.peers.(i) in
  let payloads = t.payloads.(i) in
  t.units <- i + 1;
  Array.fill t.got_n 0 dgrams_per_unit 0;
  t.deliveries <- 0;
  t.got_from_ok <- true;
  t.fourth_ns <- 0;
  let engines = [ Stack.engine peer.Tb.stack; Stack.engine t.server.Tb.stack ] in
  let c0 = List.map (fun e -> Pb.snapshot (Fbsr_fbs.Engine.counters e)) engines in
  let t0 = Pb.now_ns () in
  Array.iter
    (fun p ->
      Pb.Spans.span sp "udp.send" (fun () ->
          Udp_stack.send peer.Tb.host ~src_port ~dst:t.server_addr ~dst_port p))
    payloads;
  Pb.Spans.span sp "testbed.run" (fun () -> Tb.run t.tb);
  let latency_ns = if t.fourth_ns > 0 then t.fourth_ns - t0 else Pb.now_ns () - t0 in
  let delivered = ref 0 and failed = ref 0 in
  for k = 0 to dgrams_per_unit - 1 do
    if t.got_n.(k) = 1 && String.equal t.got.(k) payloads.(k) then incr delivered
    else begin
      incr failed;
      Pb.violation "%s unit %d datagram %d: delivered %d times" name i k t.got_n.(k)
    end
  done;
  if not t.got_from_ok then begin
    incr failed;
    Pb.violation "%s unit %d: delivery from the wrong source" name i
  end;
  List.iter2
    (fun c0 e ->
      if not (Pb.engine_balance c0 (Fbsr_fbs.Engine.counters e)) then begin
        incr failed;
        Pb.violation "%s unit %d: engine receive counters do not balance" name i
      end)
    c0 engines;
  if not (stack_balanced peer.Tb.stack && stack_balanced t.server.Tb.stack) then begin
    incr failed;
    Pb.violation "%s unit %d: parked or errored datagrams at quiescence" name i
  end;
  { Pb.legit = dgrams_per_unit; delivered = !delivered; tampered = 0; failed = !failed; latency_ns }

let sites = 3
let det_units = 2

(* Peers per site: enough for [seconds] of units at 45 ms each across the
   three sites, plus the determinism units.  Enrolling a peer costs about
   as much as its unit, so the pool is not sized for the fastest machine:
   one that runs units faster uses the pool up early and ends the timed
   loop there. *)
let unit_ms_floor = 45

let setup ~seed ~seconds =
  let per_site = sites * unit_ms_floor in
  build ~seed ~peers:((((seconds * 1000) + per_site - 1) / per_site) + det_units)

let parts t =
  let nodes = t.server :: Array.to_list t.peers in
  {
    Pb.tx_engines = List.map (fun n -> Stack.engine n.Tb.stack) (Array.to_list t.peers);
    rx_engines = [ Stack.engine t.server.Tb.stack ];
    fams = List.map (fun n -> Fbsr_fbs.Engine.fam (Stack.engine n.Tb.stack)) (Array.to_list t.peers);
    hosts = List.map (fun n -> n.Tb.host) nodes;
    stacks = List.map (fun n -> n.Tb.stack) nodes;
    mkds = List.map (fun n -> n.Tb.mkd) nodes;
  }

let add_host_ns t = t.add_host_ns

(* --- traced run --- *)

let kit ~seed =
  Probe.create ~seed ~strict:false ~own:`Testbed

let probe kit sp t =
  let i = t.units - 1 in
  let peer = t.peers.(i) in
  let inputs =
    Array.map (fun payload -> { Probe.src_port; dst_port; payload }) t.payloads.(i)
  in
  let auth = Tb.authority t.tb in
  let material (local : Tb.node) (remote : Tb.node) =
    {
      Probe.group = Tb.group t.tb;
      private_value = local.Tb.private_value;
      ca_public = Fbsr_cert.Authority.public auth;
      ca_hash = Fbsr_cert.Authority.hash auth;
      cert =
        Option.get (Fbsr_cert.Authority.lookup auth (Addr.to_string (Host.addr remote.Tb.host)));
    }
  in
  Probe.run kit sp ~now:(Tb.now t.tb)
    ~keying:[ material peer t.server; material t.server peer ]
    inputs

(* Both ends verify the other's certificate, raise it to their DH
   private exponent and serialise the shared secret; the engines seal and
   open four small datagrams. *)
let waterfall ~per_unit ~mean ~count_per_unit =
  [
    ("bignum", per_unit "bignum.dh_shared" +. per_unit "bignum.to_bytes", 0);
    ("modexp", per_unit "bignum.dh_shared", 1);
    ("to_bytes", per_unit "bignum.to_bytes", 1);
    ("cert", per_unit "cert.verify", 0);
    ("keying", mean "keying.flow_key" *. count_per_unit "derivations", 0);
    ("engine", per_unit "engine.seal" +. per_unit "engine.open", 0);
    ("netsim", per_unit "netsim.plain_burst", 0);
  ]
