(* The FBS-to-IPv6 mapping, packet level.

   The paper defines FBS over "an underlying (insecure) datagram
   transport" and cites IPv6 ([8]) and its flow label ([19]) as kindred
   flow machinery.  This module is the IPv6 analogue of the Section 7
   mapping's wire format: the security flow header sits between the IPv6
   base header and the payload (in a real stack it would be a destination
   extension header; the placement and processing are identical), and the
   sender stamps the 20-bit IPv6 flow label with a value derived from the
   sfl — so QoS routers classify exactly the flows FBS protects.

   The simulator's host stacks are IPv4; these functions are the codec +
   processing layer a v6 stack would hook in, driven directly by tests
   (FBS itself is transport-agnostic, so no fidelity is lost). *)

open Fbsr_netsim

let principal_of_addr6 a = Fbsr_fbs.Principal.of_string (Ipv6.Addr6.to_string a)

(* Build a protected IPv6 packet: classify, seal, stamp the flow label. *)
let seal_packet engine ~now ~(src : Ipv6.Addr6.t) ~(dst : Ipv6.Addr6.t) ~next_header
    ?(hop_limit = 64) ?(src_port = 0) ?(dst_port = 0) ~secret payload
    (k : (string, Fbsr_fbs.Engine.error) result -> unit) =
  let attrs =
    Fbsr_fbs.Fam.attrs ~protocol:next_header ~src_port ~dst_port
      ~size:(String.length payload) ~src:(principal_of_addr6 src)
      ~dst:(principal_of_addr6 dst) ()
  in
  Fbsr_fbs.Engine.send engine ~now ~attrs ~secret ~payload (function
    | Error e -> k (Error e)
    | Ok wire ->
        (* Recover the sfl we just used from the wire header to derive the
           flow label (one decode; cheaper than threading it out of the
           engine, and definitionally consistent with what receivers and
           routers see). *)
        let flow_label =
          match Fbsr_fbs.Header.decode wire with
          | Ok (fh, _) -> Flow_label.of_sfl fh.Fbsr_fbs.Header.sfl
          | Error _ -> 0
        in
        let h =
          Ipv6.make ~flow_label ~hop_limit ~next_header ~src ~dst
            ~payload_length:(String.length wire) ()
        in
        k (Ok (Ipv6.encode h wire)))

type opened = {
  header : Ipv6.header;
  accepted : Fbsr_fbs.Engine.accepted;
  label_consistent : bool; (* flow label matches the sfl-derived value *)
}

type error = Bad_ipv6 of string | Fbs of Fbsr_fbs.Engine.error

(* Verify and open a protected IPv6 packet. *)
let open_packet engine ~now raw (k : (opened, error) result -> unit) =
  match Ipv6.decode raw with
  | exception Ipv6.Bad_packet m -> k (Error (Bad_ipv6 m))
  | h, wire ->
      let src = principal_of_addr6 h.Ipv6.src in
      Fbsr_fbs.Engine.receive engine ~now ~src ~wire:(Fbsr_util.Slice.of_string wire)
        (function
        | Error e -> k (Error (Fbs e))
        | Ok accepted ->
            k
              (Ok
                 {
                   header = h;
                   accepted;
                   label_consistent =
                     Flow_label.consistent
                       ~sfl:accepted.Fbsr_fbs.Engine.header.Fbsr_fbs.Header.sfl h;
                 }))
