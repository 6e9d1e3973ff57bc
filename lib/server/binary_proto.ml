(** Compact binary wire protocol for POOL queries: {!Prepl.Envelope}
    frames under magic "PDBQ", with payloads of at most 1 MiB — a query
    text or printed result beyond that is a protocol violation, not a
    bigger allocation.  The magic differs from the replication magic
    ("PDRL"), so a client pointed at the wrong port fails loudly instead
    of decoding garbage.

    Frames:
    - [Query {id; q}] — one POOL query; [id] is an opaque client token
      echoed back in the answer so batched responses can be matched up.
    - [Result {id; v}] — the printed value of a successful query.
    - [Error {id; msg}] — the error text of a failed query.
    - [Batch qs] — several queries in one frame; the server answers
      with one [Result]/[Error] frame per query, in order.  Batching is
      the client-side amortisation lever: one write syscall, one read
      burst, N answers.

    Cluster frames (PR 10) — the router speaks these to backends so a
    whole HTTP request can ride the pipelined binary connection instead
    of a second HTTP socket:
    - [Hreq {id; meth; target; headers}] — an HTTP-shaped request
      (GET/POST + target + selected headers, e.g. [x-pdb-min-lsn] and a
      body smuggled under [x-pdb-body]); answered by [Hresp].
    - [Hresp {id; status; headers; body}] — status + headers (the
      backend's applied LSN rides in [x-pdb-lsn]) + body.
    - [Ping {id}] / [Pong {id; role; lsn; stream_id; repl_port}] — the
      health-check probe; [role] is ["primary"] or ["replica"], [lsn]
      the applied/durable LSN, [stream_id] the replication stream
      identity, [repl_port] the port a [Feed] (primary or cascade)
      listens on, or [-1].
    - [Ctl {id; verb; arg}] — a control verb ("promote", "demote",
      "follow") used during failover; answered with [Result]/[Error]. *)

module Envelope = Prepl.Envelope

let magic = 0x50444251 (* "PDBQ" *)
let header_size = Envelope.header_size
let max_payload = 1 lsl 20
let max_batch = 4096
let max_headers = 64

(** Framing or payload damage; raised by {!encode} for an oversized
    payload. *)
exception Malformed = Envelope.Bad_frame

type frame =
  | Query of { id : int; q : string }
  | Result of { id : int; v : string }
  | Error of { id : int; msg : string }
  | Batch of (int * string) list
  | Hreq of {
      id : int;
      meth : string;
      target : string;
      headers : (string * string) list;
    }
  | Hresp of {
      id : int;
      status : int;
      headers : (string * string) list;
      body : string;
    }
  | Ping of { id : int }
  | Pong of {
      id : int;
      role : string;
      lsn : int;
      stream_id : int;
      repl_port : int;
    }
  | Ctl of { id : int; verb : string; arg : string }

let tag = function
  | Query _ -> 1
  | Result _ -> 2
  | Error _ -> 3
  | Batch _ -> 4
  | Hreq _ -> 5
  | Hresp _ -> 6
  | Ping _ -> 7
  | Pong _ -> 8
  | Ctl _ -> 9

let enc_headers e headers =
  let open Pstore.Codec in
  Enc.u32 e (List.length headers);
  List.iter
    (fun (k, v) ->
      Enc.string e k;
      Enc.string e v)
    headers

let encode_payload (f : frame) : string =
  let open Pstore.Codec in
  let e = Enc.create () in
  (match f with
  | Query { id; q } ->
      Enc.int e id;
      Enc.string e q
  | Result { id; v } ->
      Enc.int e id;
      Enc.string e v
  | Error { id; msg } ->
      Enc.int e id;
      Enc.string e msg
  | Batch qs ->
      Enc.u32 e (List.length qs);
      List.iter
        (fun (id, q) ->
          Enc.int e id;
          Enc.string e q)
        qs
  | Hreq { id; meth; target; headers } ->
      Enc.int e id;
      Enc.string e meth;
      Enc.string e target;
      enc_headers e headers
  | Hresp { id; status; headers; body } ->
      Enc.int e id;
      Enc.u32 e status;
      enc_headers e headers;
      Enc.string e body
  | Ping { id } -> Enc.int e id
  | Pong { id; role; lsn; stream_id; repl_port } ->
      Enc.int e id;
      Enc.string e role;
      Enc.int e lsn;
      Enc.int e stream_id;
      Enc.int e repl_port
  | Ctl { id; verb; arg } ->
      Enc.int e id;
      Enc.string e verb;
      Enc.string e arg);
  Enc.to_string e

let dec_headers d what =
  let open Pstore.Codec in
  let n = Dec.u32 d in
  if n > max_headers then Envelope.bad "%d %s headers" n what;
  List.init n (fun _ ->
      let k = Dec.string d in
      (k, Dec.string d))

let decode_payload (ty : int) (d : Pstore.Codec.Dec.t) : frame =
  let open Pstore.Codec in
  match ty with
  | 1 ->
      let id = Dec.int d in
      Query { id; q = Dec.string d }
  | 2 ->
      let id = Dec.int d in
      Result { id; v = Dec.string d }
  | 3 ->
      let id = Dec.int d in
      Error { id; msg = Dec.string d }
  | 4 ->
      let n = Dec.u32 d in
      if n > max_batch then Envelope.bad "batch of %d queries" n;
      Batch
        (List.init n (fun _ ->
             let id = Dec.int d in
             (id, Dec.string d)))
  | 5 ->
      let id = Dec.int d in
      let meth = Dec.string d in
      let target = Dec.string d in
      Hreq { id; meth; target; headers = dec_headers d "request" }
  | 6 ->
      let id = Dec.int d in
      let status = Dec.u32 d in
      let headers = dec_headers d "response" in
      Hresp { id; status; headers; body = Dec.string d }
  | 7 -> Ping { id = Dec.int d }
  | 8 ->
      let id = Dec.int d in
      let role = Dec.string d in
      let lsn = Dec.int d in
      let stream_id = Dec.int d in
      Pong { id; role; lsn; stream_id; repl_port = Dec.int d }
  | 9 ->
      let id = Dec.int d in
      let verb = Dec.string d in
      Ctl { id; verb; arg = Dec.string d }
  | ty -> Envelope.unknown_tag ty

let encode (f : frame) : string =
  Envelope.encode ~magic ~max_payload ~tag:(tag f) (encode_payload f)

type 'a parsed = 'a Envelope.parsed =
  | Frame of 'a * int
  | Need_more
  | Bad of string

(** Try to extract one frame starting at [off] in a stream buffer.
    [Frame (f, n)] means [n] bytes were consumed; any envelope or
    payload violation is [Bad]. *)
let parse (buf : string) ~(off : int) : frame parsed =
  Envelope.parse ~magic ~max_payload ~decode:decode_payload buf ~off
