(* stack-mtu: the paper's Figure 8 path.  One warm Testbed FBS host pair
   with the default Stack.config (paper suite keyed-MD5 + DES-CBC, every
   datagram secret).  A unit is one burst of 64 UDP datagrams of 1460
   bytes, one per flow over 64 flows, sent with Udp_stack.send and run to
   quiescence with Testbed.run. *)

open Fbsr_netsim
module Tb = Fbsr_fbs_ip.Testbed
module Stack = Fbsr_fbs_ip.Stack

let name = "stack-mtu"
let flows = 64
let payload_len = 1460
let sets = 4
let base_port = 5000
let dst_port = 7000

type t = {
  tb : Tb.t;
  a : Tb.node;
  b : Tb.node;
  b_addr : Addr.t;
  (* [sets] payload sets of [flows] each, cycled unit by unit. *)
  payloads : string array array;
  (* Per-unit delivery record, indexed by flow: payload and count. *)
  got : string array;
  got_n : int array;
  mutable units : int;
  add_host_ns : int list;
}

let build ~seed =
  let tb = Tb.create ~seed () in
  let (a, ta) = Pb.time_ns (fun () -> Tb.add_host tb ~name:"a" ~addr:"10.0.0.1") in
  let (b, tb_ns) = Pb.time_ns (fun () -> Tb.add_host tb ~name:"b" ~addr:"10.0.0.2") in
  let rng = Fbsr_util.Rng.create (seed lxor 0x57ac) in
  let payloads =
    Array.init sets (fun _ -> Array.init flows (fun _ -> Fbsr_util.Rng.bytes rng payload_len))
  in
  let t =
    {
      tb;
      a;
      b;
      b_addr = Host.addr b.Tb.host;
      payloads;
      got = Array.make flows "";
      got_n = Array.make flows 0;
      units = 0;
      add_host_ns = [ ta; tb_ns ];
    }
  in
  Udp_stack.listen b.Tb.host ~port:dst_port (fun ~src:_ ~src_port data ->
      let i = src_port - base_port in
      if i >= 0 && i < flows then begin
        t.got.(i) <- data;
        t.got_n.(i) <- t.got_n.(i) + 1
      end);
  t

let engines t = [ Stack.engine t.a.Tb.stack; Stack.engine t.b.Tb.stack ]
let stacks t = [ t.a.Tb.stack; t.b.Tb.stack ]

(* Stack-level conservation: every datagram parked on a keying wait was
   resumed, and none ended in a stack error. *)
let stacks_quiescent t =
  List.for_all
    (fun s ->
      let c = Stack.counters s in
      c.Stack.suspended_in + c.Stack.suspended_out = c.Stack.resumed
      && c.Stack.dropped_error = 0)
    (stacks t)

let run_unit sp t =
  let payloads = t.payloads.(t.units mod sets) in
  t.units <- t.units + 1;
  Array.fill t.got_n 0 flows 0;
  let c0 = List.map (fun e -> Pb.snapshot (Fbsr_fbs.Engine.counters e)) (engines t) in
  let t0 = Pb.now_ns () in
  Array.iteri
    (fun i p ->
      Pb.Spans.span sp "udp.send" (fun () ->
          Udp_stack.send t.a.Tb.host ~src_port:(base_port + i) ~dst:t.b_addr ~dst_port p))
    payloads;
  Pb.Spans.span sp "testbed.run" (fun () -> Tb.run t.tb);
  let latency_ns = Pb.now_ns () - t0 in
  let delivered = ref 0 and failed = ref 0 in
  for i = 0 to flows - 1 do
    if t.got_n.(i) = 1 && String.equal t.got.(i) payloads.(i) then incr delivered
    else begin
      incr failed;
      Pb.violation "%s unit %d flow %d: delivered %d times" name t.units i t.got_n.(i)
    end
  done;
  List.iter2
    (fun c0 e ->
      if not (Pb.engine_balance c0 (Fbsr_fbs.Engine.counters e)) then begin
        incr failed;
        Pb.violation "%s unit %d: engine receive counters do not balance" name t.units
      end)
    c0 (engines t);
  if not (stacks_quiescent t) then begin
    incr failed;
    Pb.violation "%s unit %d: parked or errored datagrams at quiescence" name t.units
  end;
  { Pb.legit = flows; delivered = !delivered; tampered = 0; failed = !failed; latency_ns }

let setup ~seed ~seconds:_ =
  let t = build ~seed in
  ignore (run_unit (Pb.Spans.create ()) t : Pb.outcome);
  t

let sites = 9
let det_units = 8
let remaining _ = None

let parts t =
  let a = Stack.engine t.a.Tb.stack and b = Stack.engine t.b.Tb.stack in
  {
    Pb.tx_engines = [ a ];
    rx_engines = [ b ];
    fams = [ Fbsr_fbs.Engine.fam a ];
    hosts = [ t.a.Tb.host; t.b.Tb.host ];
    stacks = stacks t;
    mkds = [ t.a.Tb.mkd; t.b.Tb.mkd ];
  }

let add_host_ns t = t.add_host_ns

(* --- traced run --- *)

let kit ~seed =
  Probe.create ~seed ~strict:false ~own:`Testbed

let probe kit sp t =
  let payloads = t.payloads.((t.units - 1) mod sets) in
  let inputs =
    Array.mapi (fun i payload -> { Probe.src_port = base_port + i; dst_port; payload }) payloads
  in
  let auth = Tb.authority t.tb in
  let keying =
    [
      {
        Probe.group = Tb.group t.tb;
        private_value = t.a.Tb.private_value;
        ca_public = Fbsr_cert.Authority.public auth;
        ca_hash = Fbsr_cert.Authority.hash auth;
        cert = Option.get (Fbsr_cert.Authority.lookup auth (Addr.to_string t.b_addr));
      };
    ]
  in
  Probe.run kit sp ~now:(Tb.now t.tb) ~keying inputs

(* Figure 8's split: the engine's seal and open (crypto kernels inside),
   the simulator's own cost, and what is left — Stack glue,
   fragmentation and reassembly. *)
let waterfall ~per_unit ~mean:_ ~count_per_unit:_ =
  let engine = per_unit "engine.seal" +. per_unit "engine.open" in
  [
    ("engine", engine, 0);
    ("crypto", per_unit "crypto.seal" +. per_unit "crypto.open", 1);
    ("fam", per_unit "fam.classify", 1);
    ("netsim", per_unit "netsim.plain_burst", 0);
  ]
