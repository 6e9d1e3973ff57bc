(** Blocking client for the binary POOL protocol.

    Deliberately small: connect, send {!Binary_proto} frames, read
    answers.  [query] is the one-shot path; [batch] is the amortisation
    path — one [Batch] frame out, N answers back in request order, one
    write syscall and one read burst instead of N round trips.  The
    load generator, the router's {!Backend_pool} and the protocol tests
    are all built on this module, and it is the reference
    implementation for anyone speaking the protocol from another
    language.

    Sockets are dialled, written and read only through {!Prepl.Link},
    the same seam the replication stream uses: hostnames resolve via
    getaddrinfo, SIGPIPE is ignored, and every transport failure —
    unresolvable host, refused connect, reset, EOF mid-frame — is the
    typed {!Backend_down}, so callers distinguish "this backend is
    gone, try a peer" from programming errors.  {!Protocol_error} means
    framing damage: the stream cannot be resynchronised and the
    connection must die. *)

module Link = Prepl.Link

type t = {
  link : Link.t;
  chunk : Bytes.t; (* 64 KiB receive buffer: one read per burst *)
  mutable buf : string; (* received, not yet parsed *)
  mutable next_id : int;
}

type answer = Ok of string | Err of string

exception Backend_down = Link.Link_down
exception Protocol_error of string

let connect ?(host = "127.0.0.1") ~port () : t =
  { link = Link.connect ~host ~port; chunk = Bytes.create 65536; buf = ""; next_id = 0 }

let close (t : t) = t.link.Link.close ()

(** Wake any thread blocked on [t] without releasing the descriptor
    (the [shutdown] of {!Link.t}); the owner still calls {!close}. *)
let shutdown (t : t) = t.link.Link.shutdown ()

let fresh_id (t : t) : int =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let send_frame (t : t) (f : Binary_proto.frame) =
  Link.send_string t.link (Binary_proto.encode f)

(* Append one read's worth of bytes to the unparsed buffer. *)
let fill (t : t) =
  match t.link.Link.recv t.chunk ~off:0 ~len:(Bytes.length t.chunk) with
  | 0 -> raise (Backend_down "connection closed mid-frame")
  | n -> t.buf <- t.buf ^ Bytes.sub_string t.chunk 0 n

(** Read frames until one arrives; framing damage raises
    {!Protocol_error}, connection loss raises {!Backend_down}. *)
let rec recv_frame (t : t) : Binary_proto.frame =
  match Binary_proto.parse t.buf ~off:0 with
  | Binary_proto.Frame (f, consumed) ->
      t.buf <- String.sub t.buf consumed (String.length t.buf - consumed);
      f
  | Binary_proto.Bad m -> raise (Protocol_error m)
  | Binary_proto.Need_more ->
      fill t;
      recv_frame t

(** Wait up to [timeout_s] for a whole frame: true once one (or framing
    damage) is buffered, so the next {!recv_frame} returns without
    blocking.  Bytes arriving meanwhile are read into the buffer, so a
    peer that stalls mid-frame cannot hold the caller past the
    deadline — this is the backend pool reader's idle wait. *)
let poll ?(timeout_s = 0.) (t : t) : bool =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    (match Binary_proto.parse t.buf ~off:0 with
    | Binary_proto.Frame _ | Binary_proto.Bad _ -> true
    | Binary_proto.Need_more -> false)
    || t.link.Link.poll (Float.max 0. (deadline -. Unix.gettimeofday ()))
       && (fill t;
           go ())
  in
  go ()

let answer_of (id : int) (f : Binary_proto.frame) : answer =
  match f with
  | Binary_proto.Result r when r.id = id -> Ok r.v
  | Binary_proto.Error e when e.id = id -> Err e.msg
  | Binary_proto.Result _ | Binary_proto.Error _ ->
      raise (Protocol_error "answer id does not match query id")
  | _ -> raise (Protocol_error "unexpected frame type in answer")

(** Run one POOL query; returns its printed value or error text. *)
let query (t : t) (q : string) : answer =
  let id = fresh_id t in
  send_frame t (Binary_proto.Query { id; q });
  answer_of id (recv_frame t)

(** Run a batch of POOL queries in one frame; answers come back in
    query order. *)
let batch (t : t) (qs : string list) : answer list =
  let ids = List.map (fun q -> (fresh_id t, q)) qs in
  send_frame t (Binary_proto.Batch ids);
  List.map (fun (id, _) -> answer_of id (recv_frame t)) ids

(** A backend's answer to the health-check [Ping]. *)
type pong = { p_role : string; p_lsn : int; p_stream_id : int; p_repl_port : int }
