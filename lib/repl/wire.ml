(** The replication wire protocol: {!Envelope} frames under magic
    "PDRL", with payloads of up to 1 GiB (a whole-file snapshot).

    Payloads (all little-endian, via {!Pstore.Codec}):

    - [Hello]    (replica → primary): [i64 stream_id | i64 last_lsn] —
      the replica announces which stream it last followed and the LSN
      its file is durably at; the primary answers by resuming the delta
      stream past that LSN, or by sending a full [Snapshot] when it
      cannot (unknown stream, backlog evicted, replica ahead).
    - [Snapshot] (primary → replica): [i64 stream_id | i64 lsn | string
      file bytes] — a consistent image of the whole database file at
      [lsn].
    - [Delta]    (primary → replica): [i64 lsn | u32 npages |
      (i64 page_no | page bytes)*] — one committed transaction's
      after-images (see {!Pstore.Pager.redo_record}).
    - [Ack]      (replica → primary): [i64 lsn] — durably applied.
    - [PageFetch] (replica → primary): [i64 lsn | u32 npages | i64*] —
      the replica found corrupt pages and asks for clean copies
      consistent with its applied [lsn].
    - [PageData] (primary → replica): [i64 lsn | u32 npages |
      (i64 page_no | page bytes)*] — the requested images, or an
      {e empty} page list when the primary cannot serve them at that
      LSN (the refusal that sends the replica to re-bootstrap).

    Anything malformed — bad magic, unknown type, oversized payload,
    CRC mismatch, trailing bytes — raises {!Wire_error}, and a mid-frame
    EOF {!Link.Link_down}; the connection is abandoned and the replica's
    reconnect/resume protocol recovers, so a torn frame can never be
    half-applied. *)

open Pstore

exception Wire_error = Envelope.Bad_frame

let magic = 0x5044524C (* "PDRL" *)
let header_size = Envelope.header_size

(** Upper bound on a payload: a snapshot of a ~1 GiB database file.
    Anything larger is treated as a corrupt length field. *)
let max_payload = 1 lsl 30

type frame =
  | Hello of { stream_id : int; last_lsn : int }
  | Snapshot of { stream_id : int; lsn : int; data : string }
  | Delta of { lsn : int; pages : (int * string) list }
  | Ack of { lsn : int }
  | PageFetch of { lsn : int; pages : int list }
  | PageData of { lsn : int; pages : (int * string) list }

let type_byte = function
  | Hello _ -> 1
  | Snapshot _ -> 2
  | Delta _ -> 3
  | Ack _ -> 4
  | PageFetch _ -> 5
  | PageData _ -> 6

(* Page images, each exactly one page long: anything else is a bug in
   the sender. *)
let enc_pages e what pages =
  Codec.Enc.u32 e (List.length pages);
  List.iter
    (fun (no, data) ->
      if String.length data <> Pager.page_size then
        Envelope.bad "%s page %d has %d bytes (want %d)" what no
          (String.length data) Pager.page_size;
      Codec.Enc.int e no;
      Codec.Enc.raw e data)
    pages

let encode_payload (f : frame) : string =
  let e = Codec.Enc.create () in
  (match f with
  | Hello { stream_id; last_lsn } ->
      Codec.Enc.int e stream_id;
      Codec.Enc.int e last_lsn
  | Snapshot { stream_id; lsn; data } ->
      Codec.Enc.int e stream_id;
      Codec.Enc.int e lsn;
      Codec.Enc.string e data
  | Delta { lsn; pages } ->
      Codec.Enc.int e lsn;
      enc_pages e "delta" pages
  | Ack { lsn } -> Codec.Enc.int e lsn
  | PageFetch { lsn; pages } ->
      Codec.Enc.int e lsn;
      Codec.Enc.u32 e (List.length pages);
      List.iter (fun no -> Codec.Enc.int e no) pages
  | PageData { lsn; pages } ->
      Codec.Enc.int e lsn;
      enc_pages e "page-data" pages);
  Codec.Enc.to_string e

(* The [n] page images of a [Delta]/[PageData] payload. *)
let dec_pages d n =
  List.init n (fun _ ->
      let no = Codec.Dec.int d in
      Codec.Dec.need d Pager.page_size;
      let data = String.sub d.Codec.Dec.src d.Codec.Dec.pos Pager.page_size in
      d.Codec.Dec.pos <- d.Codec.Dec.pos + Pager.page_size;
      (no, data))

let decode_payload ty (d : Codec.Dec.t) : frame =
  match ty with
  | 1 ->
      let stream_id = Codec.Dec.int d in
      let last_lsn = Codec.Dec.int d in
      Hello { stream_id; last_lsn }
  | 2 ->
      let stream_id = Codec.Dec.int d in
      let lsn = Codec.Dec.int d in
      let data = Codec.Dec.string d in
      Snapshot { stream_id; lsn; data }
  | 3 ->
      let lsn = Codec.Dec.int d in
      Delta { lsn; pages = dec_pages d (Codec.Dec.u32 d) }
  | 4 -> Ack { lsn = Codec.Dec.int d }
  | 5 ->
      let lsn = Codec.Dec.int d in
      let n = Codec.Dec.u32 d in
      PageFetch { lsn; pages = List.init n (fun _ -> Codec.Dec.int d) }
  | 6 ->
      let lsn = Codec.Dec.int d in
      PageData { lsn; pages = dec_pages d (Codec.Dec.u32 d) }
  | ty -> Envelope.unknown_tag ty

let encode (f : frame) : string =
  Envelope.encode ~magic ~max_payload ~tag:(type_byte f) (encode_payload f)

let to_link (l : Link.t) (f : frame) : unit = Link.send_string l (encode f)

let from_link (l : Link.t) : frame =
  Envelope.read ~magic ~max_payload ~decode:decode_payload l
