(** The frame envelope every binary protocol in the system speaks: the
    replication stream ({!Wire}, magic "PDRL", 1 GiB payloads) and the
    POOL query protocol ([Pserver.Binary_proto], magic "PDBQ", 1 MiB
    payloads).

    {v
      off 0 : u32  magic
      off 4 : u8   frame type (tag)
      off 5 : u32  payload length
      off 9 : payload bytes
      then  : u32  CRC-32 of the payload
    v}

    All integers are little-endian.  A protocol brings its magic, its
    payload cap and a payload decoder; this module owns the layout and
    every structural check — magic, length cap, CRC, unknown tag,
    payload underrun and trailing bytes — so both protocols reject
    damage identically, and each rejects the other's magic (a client
    pointed at the wrong port fails loudly instead of decoding
    garbage).  Any violation is {!Bad_frame}: a byte stream cannot be
    resynchronised after corrupt framing, so the connection must die. *)

open Pstore

exception Bad_frame of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_frame s)) fmt
let header_size = 9

(** A protocol decoder's answer to a tag it does not define. *)
let unknown_tag ty = bad "unknown frame type %d" ty

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff
let crc s = Int32.to_int (Codec.Crc32.digest s) land 0xffffffff

(** The complete on-wire encoding of one frame.  A payload over
    [max_payload] raises here, on the sender: the receiver would reject
    the length field anyway, and failing at the source is the only
    place the error is visible. *)
let encode ~magic ~max_payload ~tag (payload : string) : string =
  let len = String.length payload in
  if len > max_payload then
    bad "frame payload of %d bytes exceeds the %d-byte cap" len max_payload;
  let b = Bytes.create (header_size + len + 4) in
  Bytes.set_int32_le b 0 (Int32.of_int magic);
  Bytes.set_uint8 b 4 tag;
  Bytes.set_int32_le b 5 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_size len;
  Bytes.set_int32_le b (header_size + len) (Int32.of_int (crc payload));
  Bytes.unsafe_to_string b

(* The tag and payload length of the header at [off].  The length cap
   is enforced from the header alone, before any payload is buffered. *)
let header ~magic ~max_payload s off =
  let m = u32 s off in
  if m <> magic then bad "bad magic 0x%08x" m;
  let len = u32 s (off + 5) in
  if len > max_payload then bad "oversized frame (%d-byte payload)" len;
  (Char.code s.[off + 4], len)

(* Check the payload against its CRC, then decode it; the decoder must
   consume every byte. *)
let open_payload ~decode tag payload ~crc:expect =
  if crc payload <> expect then bad "frame CRC mismatch";
  let d = Codec.Dec.of_string payload in
  match decode tag d with
  | f ->
      if Codec.Dec.remaining d <> 0 then bad "trailing payload bytes";
      f
  | exception Codec.Corrupt m -> bad "corrupt payload: %s" m

type 'a parsed = Frame of 'a * int | Need_more | Bad of string

(** Try to extract one frame starting at [off] in a stream buffer (the
    event loop's and the blocking client's path).  [Frame (f, n)] means
    [n] bytes were consumed. *)
let parse ~magic ~max_payload ~decode (buf : string) ~(off : int) : 'a parsed =
  let avail = String.length buf - off in
  if avail < header_size then Need_more
  else
    match header ~magic ~max_payload buf off with
    | exception Bad_frame m -> Bad m
    | _, len when avail < header_size + len + 4 -> Need_more
    | tag, len -> (
        let payload = String.sub buf (off + header_size) len in
        let crc = u32 buf (off + header_size + len) in
        match open_payload ~decode tag payload ~crc with
        | f -> Frame (f, header_size + len + 4)
        | exception Bad_frame m -> Bad m)

(** Read exactly one frame off a link (the replication path): header
    first, then the payload into a buffer of exactly its size, so a
    1 GiB snapshot is never copied through a growing buffer.  A
    mid-frame EOF is {!Link.Link_down}; bytes that arrived but are not
    a frame are {!Bad_frame}. *)
let read ~magic ~max_payload ~decode (l : Link.t) =
  let hdr = Bytes.create header_size in
  Link.really_recv l hdr ~off:0 ~len:header_size;
  let tag, len = header ~magic ~max_payload (Bytes.unsafe_to_string hdr) 0 in
  let payload = Bytes.create len and trailer = Bytes.create 4 in
  Link.really_recv l payload ~off:0 ~len;
  Link.really_recv l trailer ~off:0 ~len:4;
  open_payload ~decode tag
    (Bytes.unsafe_to_string payload)
    ~crc:(u32 (Bytes.unsafe_to_string trailer) 0)
