(* Layer probes for the traced run.  A layer that the workload enters
   only from inside the program (the engine under Stack's hooks, the FAM
   under Sharded's dispatcher, the crypto kernels under the engine) is
   timed here by calling its public function on the same inputs the unit
   just used: the same ports, payloads, group and certificates.  Every
   probe runs on shadow state of its own, so the workload's counters,
   caches and replay windows never see a probe. *)

open Fbsr_netsim
module Fixture = Fbsr_experiments.Fixture
module Engine = Fbsr_fbs.Engine
module Tb = Fbsr_fbs_ip.Testbed

(* One datagram as the probes see it. *)
type input = { src_port : int; dst_port : int; payload : string }

(* Keying material of one master-key computation: the local private
   value and the peer's certificate, whose public value and signature
   the DH and certificate probes use. *)
type keying = {
  group : Fbsr_crypto.Dh.group;
  private_value : Fbsr_crypto.Dh.private_value;
  ca_public : Fbsr_crypto.Rsa.public_key;
  ca_hash : Fbsr_crypto.Hash.t;
  cert : Fbsr_cert.Certificate.t;
}

type kit = {
  suite : Fbsr_fbs.Suite.t;
  shadow : Fixture.t;  (** warm engine pair for engine.seal / engine.open *)
  fam : Fbsr_fbs.Fam.t;  (** shadow FAM for fam.classify *)
  master : string;  (** shadow pair's master key, for keying.flow_key *)
  armor : Fbsr_fbs.Armor.armor;  (** the suite's MAC and cipher kernels *)
  actx : Fbsr_fbs.Armor.ctx;
  flow : Fbsr_fbs.Armor.flow_state;  (** one warm flow's key schedules *)
  body : Fbsr_util.Byte_writer.t;
  side : Tb.t;  (** plain host pair for netsim.plain_burst (and FBS hosts, see [owner]) *)
  plain_a : Host.t;
  plain_b : Host.t;
  mutable plain_got : int;
  mutable plain_sent : int;  (** datagrams through the netsim probe *)
  side_keying : keying list;  (** the side testbed's FBS hosts, for a [`Sharded] owner *)
  side_add_host_ns : int list;
  sharded : Fixture.sharded option;  (** side n-shard pair, when the workload has none *)
  sharded1 : Fixture.sharded;  (** 1-shard twin for the speed-up *)
  nshards : int;
  mutable crypto_bytes : int;  (** payload bytes through the crypto probes *)
  mutable failures : int;
}

let plain_port = 9000

let attrs kit (i : input) =
  Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:i.src_port ~dst_port:i.dst_port
    ~size:(String.length i.payload) ~src:kit.shadow.Fixture.src ~dst:kit.shadow.Fixture.dst
    ()

let fail kit what =
  kit.failures <- kit.failures + 1;
  Pb.violation "probe: %s" what

(* What the workload brings of its own.  A [`Testbed] workload has a
   Testbed (its keying material and add_host timings come from there) but
   no sharded pair: the kit builds an n-shard side pair next to the
   1-shard twin.  A [`Sharded seed] workload is the sharded pair built
   from [seed]: the twin takes the same seed, so it holds the same keys
   and opens the workload's own wires, and the side testbed gets two FBS
   hosts for the keying material and add_host timings.  [strict] mirrors
   the workload's replay mode. *)
type owner = [ `Testbed | `Sharded of int ]

let create ~seed ~strict ~(own : owner) =
  let nshards = Fbsr_util.Domain_shim.recommended_domain_count () in
  let suite = Fbsr_fbs.Suite.paper_md5_des in
  let shadow = Fixture.engine_pair ~seed:(seed lxor 0x5ad0) ~suite ~strict_replay:strict () in
  let master =
    match
      Fbsr_fbs.Keying.get_master_sync (Engine.keying shadow.Fixture.sender) shadow.Fixture.dst
    with
    | Ok m -> m
    | Error _ -> failwith "probe: shadow master key"
  in
  let alloc = Fbsr_fbs.Sfl.allocator ~rng:(Fbsr_util.Rng.create (seed lxor 0xfa3)) in
  let fam = Fbsr_fbs.Fam.create (Fbsr_fbs.Policy_five_tuple.policy ~alloc ()) in
  let flow_key =
    Fbsr_fbs.Keying.flow_key ~hash:suite.Fbsr_fbs.Suite.kdf_hash
      ~sfl:(Fbsr_fbs.Sfl.of_int64 0x5eedL) ~master ~src:shadow.Fixture.src
      ~dst:shadow.Fixture.dst
  in
  let side = Tb.create ~seed:(seed lxor 0x51de) () in
  let plain_a = Tb.add_plain_host side ~name:"plain-a" ~addr:"10.0.2.1" in
  let plain_b = Tb.add_plain_host side ~name:"plain-b" ~addr:"10.0.2.2" in
  let fbs =
    match own with
    | `Sharded _ ->
        List.map
          (fun (name, addr) -> Pb.time_ns (fun () -> Tb.add_host side ~name ~addr))
          [ ("side-a", "10.0.2.3"); ("side-b", "10.0.2.4") ]
    | `Testbed -> []
  in
  let side_keying =
    match fbs with
    | [ (a, _); (b, _) ] ->
        let auth = Tb.authority side in
        [
          {
            group = Tb.group side;
            private_value = a.Tb.private_value;
            ca_public = Fbsr_cert.Authority.public auth;
            ca_hash = Fbsr_cert.Authority.hash auth;
            cert =
              Option.get
                (Fbsr_cert.Authority.lookup auth (Addr.to_string (Host.addr b.Tb.host)));
          };
        ]
    | _ -> []
  in
  let kit =
    {
      suite;
      shadow;
      fam;
      master;
      armor = Fbsr_fbs.Armor.of_suite suite;
      (* The kernels bump the counters of the context they run in: the
         shadow receiver's, which nothing reads. *)
      actx = Fbsr_fbs.Armor.make_ctx (Engine.counters shadow.Fixture.receiver);
      flow = Fbsr_fbs.Armor.flow_state_of_key flow_key;
      body = Fbsr_util.Byte_writer.create ();
      side;
      plain_a;
      plain_b;
      plain_got = 0;
      plain_sent = 0;
      side_keying;
      side_add_host_ns = List.map snd fbs;
      sharded =
        (match own with
        | `Testbed -> Some (Fixture.sharded_pair ~seed:(seed lxor 0x5a4d) ~nshards ~strict_replay:strict ())
        | `Sharded _ -> None);
      sharded1 =
        Fixture.sharded_pair
          ~seed:(match own with `Testbed -> seed lxor 0x5a4d | `Sharded s -> s)
          ~nshards:1 ~strict_replay:strict ();
      nshards;
      crypto_bytes = 0;
      failures = 0;
    }
  in
  Udp_stack.listen plain_b ~port:plain_port (fun ~src:_ ~src_port:_ _ ->
      kit.plain_got <- kit.plain_got + 1);
  kit

let span = Pb.Spans.span

(* The suite's MAC and cipher kernels — the armor driver the engine
   delegates to — sealing then opening each payload under one warm flow's
   key schedules and MAC midstate. *)
let crypto kit sp inputs =
  let module A = (val kit.armor) in
  let slice = Fbsr_util.Slice.of_string in
  let mac_len = kit.suite.Fbsr_fbs.Suite.mac_length in
  Array.iteri
    (fun k i ->
      kit.crypto_bytes <- kit.crypto_bytes + String.length i.payload;
      let confounder = 0x1000 + k and timestamp = 1 in
      let mac =
        span sp "crypto.seal" (fun () ->
            Fbsr_util.Byte_writer.reset kit.body;
            A.seal_body kit.actx kit.flow ~secret:true ~confounder ~payload:i.payload kit.body;
            A.seal_mac kit.actx kit.flow ~secret:true ~confounder ~timestamp
              ~payload:(slice i.payload))
      in
      let body = slice (Fbsr_util.Byte_writer.contents kit.body) in
      let expected = slice (String.sub mac 0 mac_len) in
      let ok =
        span sp "crypto.open" (fun () ->
            match A.open_body kit.actx kit.flow ~confounder ~body with
            | Error () -> false
            | Ok pt ->
                A.verify_mac kit.actx kit.flow ~secret:true ~confounder ~timestamp
                  ~payload:(slice pt) ~expected
                && String.equal pt i.payload)
      in
      if not ok then fail kit "crypto kernels did not round-trip")
    inputs

let fam_and_keying kit sp ~now inputs =
  Array.iter
    (fun i ->
      let a = attrs kit i in
      let sfl, _ = span sp "fam.classify" (fun () -> Fbsr_fbs.Fam.classify kit.fam ~now a) in
      ignore
        (span sp "keying.flow_key" (fun () ->
             Fbsr_fbs.Keying.flow_key ~hash:kit.suite.Fbsr_fbs.Suite.kdf_hash ~sfl
               ~master:kit.master ~src:a.Fbsr_fbs.Fam.src ~dst:a.Fbsr_fbs.Fam.dst)
          : string))
    inputs

let engine kit sp ~now inputs =
  let p = kit.shadow in
  Array.iter
    (fun i ->
      let attrs = attrs kit i in
      match
        span sp "engine.seal" (fun () ->
            Engine.send_sync p.Fixture.sender ~now ~attrs ~secret:true ~payload:i.payload)
      with
      | Error _ -> fail kit "shadow engine refused to seal"
      | Ok wire -> (
          match
            span sp "engine.open" (fun () ->
                Engine.receive_sync p.Fixture.receiver ~now ~src:p.Fixture.src ~wire)
          with
          | Ok acc when String.equal acc.Engine.payload i.payload -> ()
          | _ -> fail kit "shadow engine did not round-trip"))
    inputs

let keying_material kit sp (ks : keying list) =
  List.iter
    (fun k ->
      (* The keying layer calls [Dh.shared_bytes]: the modexp, then the
         fixed-width serialisation of the shared secret, timed apart. *)
      let shared =
        span sp "bignum.dh_shared" (fun () ->
            Fbsr_crypto.Dh.shared k.group k.private_value
              (Fbsr_cert.Certificate.public_nat k.cert))
      in
      ignore
        (span sp "bignum.to_bytes" (fun () ->
             let width = (Fbsr_bignum.Nat.bit_length k.group.Fbsr_crypto.Dh.p + 7) / 8 in
             Fbsr_bignum.Nat.to_bytes_be ~length:width shared)
          : string);
      match
        span sp "cert.verify" (fun () ->
            Fbsr_cert.Certificate.verify ~ca_public:k.ca_public ~hash:k.ca_hash ~now:0.0 k.cert)
      with
      | Ok () -> ()
      | Error _ -> fail kit "a workload certificate failed to verify")
    ks

let fanout_join kit sp =
  let thunks = Array.make kit.nshards (fun () -> ()) in
  for _ = 1 to 2 do
    span sp "sharded.fanout_join" (fun () ->
        ignore (Fbsr_util.Domain_shim.parallel_run thunks : unit array))
  done

(* Run a batch through a side sharded pair: [prefix].send_all and
   [prefix].receive_all. *)
let through_sharded sp prefix (s : Fixture.sharded) ~now inputs =
  let jobs =
    Array.map
      (fun i ->
        ( Fbsr_fbs.Fam.attrs ~protocol:17 ~src_port:i.src_port ~dst_port:i.dst_port
            ~size:(String.length i.payload) ~src:s.Fixture.sh_src ~dst:s.Fixture.sh_dst (),
          i.payload ))
      inputs
  in
  let sent =
    span sp (prefix ^ ".send_all") (fun () ->
        Fbsr_fbs.Sharded.send_all s.Fixture.tx ~now ~secret:true jobs)
  in
  let wires = Array.map (function Ok w -> w | Error _ -> "") sent in
  ignore
    (span sp (prefix ^ ".receive_all") (fun () ->
         Fbsr_fbs.Sharded.receive_all s.Fixture.rx ~now ~src:s.Fixture.sh_src wires)
      : (Engine.accepted, Engine.error) result array)

(* The same bursts between two GENERIC hosts: the simulator's own cost
   per datagram, with no FBS processing. *)
let netsim kit sp inputs =
  kit.plain_got <- 0;
  kit.plain_sent <- kit.plain_sent + Array.length inputs;
  let dst = Host.addr kit.plain_b in
  span sp "netsim.plain_burst" (fun () ->
      Array.iter
        (fun i -> Udp_stack.send kit.plain_a ~src_port:i.src_port ~dst ~dst_port:plain_port i.payload)
        inputs;
      Tb.run kit.side);
  if kit.plain_got <> Array.length inputs then fail kit "plain hosts lost a datagram"

(* Every probe on one unit's inputs, under one "probe" span.
   [sharded_batch], when given, is the sharded workload's own batch (jobs,
   received wires, source principal): the 1-shard twin then seals those
   jobs and opens exactly those wires. *)
let run kit sp ~now ~keying ?sharded_batch inputs =
  span sp "probe" (fun () ->
      crypto kit sp inputs;
      fam_and_keying kit sp ~now inputs;
      engine kit sp ~now inputs;
      keying_material kit sp keying;
      fanout_join kit sp;
      (match kit.sharded with
      | Some s -> through_sharded sp "sharded" s ~now inputs
      | None -> ());
      (match sharded_batch with
      | Some (jobs, rx_wires, src) ->
          let s = kit.sharded1 in
          ignore
            (span sp "sharded1.send_all" (fun () ->
                 Fbsr_fbs.Sharded.send_all s.Fixture.tx ~now ~secret:true jobs)
              : (string, Engine.error) result array);
          ignore
            (span sp "sharded1.receive_all" (fun () ->
                 Fbsr_fbs.Sharded.receive_all s.Fixture.rx ~now ~src rx_wires)
              : (Engine.accepted, Engine.error) result array)
      | None -> through_sharded sp "sharded1" kit.sharded1 ~now inputs);
      netsim kit sp inputs)
