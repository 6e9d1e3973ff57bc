(** Pipelined connection pool to one backend's binary port.

    The router keeps one of these per backend.  Each pool holds a small
    fixed set of {e channels}; a channel is one TCP connection plus a
    dedicated reader thread, a table of in-flight requests keyed by
    frame id, and a condition variable the requesters sleep on.  Many
    router workers can have requests outstanding on the same connection
    at once — true pipelining: the send is one locked write, the reader
    dispatches answers by id as they arrive, in whatever order the
    backend produces them.

    Failure discipline: any transport error, framing damage or request
    timeout kills the whole channel — every in-flight request on it
    fails with {!Client.Backend_down}, the connection is shut down, and
    the channel enters the {!Prepl.Backoff.reconnect} backoff (50 ms
    doubling to 2 s).  While in backoff the channel {e fails fast}
    instead of re-dialing a dead host on every request; health probes
    pass [~force:true] to bypass the gate, so probe cadence — not
    request traffic — decides when a recovered backend is re-admitted. *)

(* The reader's idle tick: how often a reader with nothing to read
   wakes to expire stale requests and notice close. *)
let reader_tick_s = 0.25

type slot = {
  s_at : float; (* enqueue time, for the request timeout *)
  mutable s_reply : Binary_proto.frame option;
  mutable s_fail : string option;
}

type chan = {
  cm : Mutex.t;
  cv : Condition.t;
  mutable c_conn : Client.t option;
  c_pending : (int, slot) Hashtbl.t;
  mutable c_outstanding : int;
  mutable c_retired : Client.t list; (* shut down; the reader closes them *)
  mutable c_next_try : float; (* earliest re-dial when down *)
  c_backoff : Prepl.Backoff.t;
  mutable c_closed : bool;
  mutable c_reader : Thread.t option;
}

type t = {
  host : string;
  port : int;
  timeout_s : float;
  chans : chan array;
  sent : int Atomic.t;
  failed : int Atomic.t;
}

let frame_id = function
  | Binary_proto.Query { id; _ }
  | Binary_proto.Result { id; _ }
  | Binary_proto.Error { id; _ }
  | Binary_proto.Hreq { id; _ }
  | Binary_proto.Hresp { id; _ }
  | Binary_proto.Ping { id }
  | Binary_proto.Pong { id; _ }
  | Binary_proto.Ctl { id; _ } ->
      id
  | Binary_proto.Batch _ -> -1

(* Kill the channel: fail every in-flight request, shut the connection
   down, arm the backoff.  Shutdown rather than close: the reader may
   be blocked on the connection, and a close from here would let the
   descriptor number be reused under it — the reader closes retired
   connections itself, between reads.  Caller holds [cm]. *)
let fail_channel_locked (ch : chan) (msg : string) =
  (match ch.c_conn with
  | Some c ->
      Client.shutdown c;
      ch.c_retired <- c :: ch.c_retired
  | None -> ());
  ch.c_conn <- None;
  Hashtbl.iter (fun _ s -> s.s_fail <- Some msg) ch.c_pending;
  Hashtbl.reset ch.c_pending;
  ch.c_outstanding <- 0;
  ch.c_next_try <- Unix.gettimeofday () +. Prepl.Backoff.next ch.c_backoff;
  Condition.broadcast ch.cv

(* Dedicated per-channel reader: dispatch answers by id; on transport
   death or a stale request, kill the channel.  Only this thread closes
   connections (retired ones, between reads).  Exits when the pool
   closes. *)
let reader_loop (t : t) (ch : chan) =
  let current conn = match ch.c_conn with Some c -> c == conn | None -> false in
  (* Serve [conn] until it is no longer the channel's connection. *)
  let rec serve conn =
    let event =
      match
        if Client.poll ~timeout_s:reader_tick_s conn then `Frame (Client.recv_frame conn)
        else `Idle
      with
      | ev -> ev
      | exception Client.Backend_down m -> `Dead m
      | exception Client.Protocol_error m -> `Dead ("protocol: " ^ m)
      | exception e -> `Dead (Printexc.to_string e)
    in
    Mutex.lock ch.cm;
    (if current conn then
       match event with
       | `Frame f -> (
           match Hashtbl.find_opt ch.c_pending (frame_id f) with
           | Some s ->
               s.s_reply <- Some f;
               Hashtbl.remove ch.c_pending (frame_id f);
               ch.c_outstanding <- ch.c_outstanding - 1;
               Condition.broadcast ch.cv
           | None -> () (* answer to nothing we sent: ignore *))
       | `Idle ->
           (* expire requests past the deadline — a timed-out request
              poisons the channel, because its answer may still arrive
              and must not be matched to a recycled id on a fresh
              exchange *)
           let now = Unix.gettimeofday () in
           if Hashtbl.fold (fun _ s acc -> acc || now -. s.s_at > t.timeout_s) ch.c_pending false
           then fail_channel_locked ch "request timed out"
       | `Dead m -> fail_channel_locked ch m);
    let again = current conn in
    Mutex.unlock ch.cm;
    if again then serve conn
  in
  let rec go () =
    Mutex.lock ch.cm;
    let rec await () =
      List.iter Client.close ch.c_retired;
      ch.c_retired <- [];
      if ch.c_conn = None && not ch.c_closed then begin
        Condition.wait ch.cv ch.cm;
        await ()
      end
    in
    await ();
    match ch.c_conn with
    | Some conn when not ch.c_closed ->
        Mutex.unlock ch.cm;
        serve conn;
        go ()
    | _ -> Mutex.unlock ch.cm
  in
  go ()

let create ?(channels = 2) ?(timeout_s = 10.) ~host ~port () : t =
  let mk_chan () =
    {
      cm = Mutex.create ();
      cv = Condition.create ();
      c_conn = None;
      c_pending = Hashtbl.create 16;
      c_outstanding = 0;
      c_retired = [];
      c_next_try = 0.;
      c_backoff = Prepl.Backoff.reconnect ();
      c_closed = false;
      c_reader = None;
    }
  in
  let t =
    {
      host;
      port;
      timeout_s;
      chans = Array.init (max 1 channels) (fun _ -> mk_chan ());
      sent = Atomic.make 0;
      failed = Atomic.make 0;
    }
  in
  Array.iter
    (fun ch -> ch.c_reader <- Some (Thread.create (fun () -> reader_loop t ch) ()))
    t.chans;
  t

(* Dial if down.  Caller holds [cm].  [force] bypasses the backoff gate
   (health probes); everyone else fails fast while the gate is armed. *)
let ensure_conn_locked (t : t) (ch : chan) ~force =
  if ch.c_closed then raise (Client.Backend_down "pool closed");
  match ch.c_conn with
  | Some _ -> ()
  | None ->
      if (not force) && Unix.gettimeofday () < ch.c_next_try then
        raise
          (Client.Backend_down
             (Printf.sprintf "%s:%d down (in backoff)" t.host t.port));
      (match Client.connect ~host:t.host ~port:t.port () with
      | conn ->
          ch.c_conn <- Some conn;
          Prepl.Backoff.reset ch.c_backoff;
          Condition.broadcast ch.cv (* wake the reader *)
      | exception (Client.Backend_down _ as e) ->
          ch.c_next_try <- Unix.gettimeofday () +. Prepl.Backoff.next ch.c_backoff;
          raise e)

(* Least-outstanding channel, preferring live connections. *)
let pick (t : t) : chan =
  let best = ref t.chans.(0) in
  let score ch = (if ch.c_conn = None then 1_000_000 else 0) + ch.c_outstanding in
  Array.iter (fun ch -> if score ch < score !best then best := ch) t.chans;
  !best

let outstanding (t : t) : int =
  Array.fold_left (fun acc ch -> acc + ch.c_outstanding) 0 t.chans

let connected (t : t) : int =
  Array.fold_left (fun acc ch -> acc + if ch.c_conn <> None then 1 else 0) 0 t.chans

(** Send one frame (built around a fresh id by [mk]) and wait for its
    answer.  Raises {!Client.Backend_down} on transport failure or
    timeout, {!Client.Protocol_error} on framing damage. *)
let request ?(force = false) (t : t) (mk : int -> Binary_proto.frame) :
    Binary_proto.frame =
  let ch = pick t in
  Mutex.lock ch.cm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock ch.cm)
    (fun () ->
      (try ensure_conn_locked t ch ~force
       with e ->
         Atomic.incr t.failed;
         raise e);
      let conn = Option.get ch.c_conn in
      let id = Client.fresh_id conn in
      let slot = { s_at = Unix.gettimeofday (); s_reply = None; s_fail = None } in
      Hashtbl.replace ch.c_pending id slot;
      ch.c_outstanding <- ch.c_outstanding + 1;
      (try Client.send_frame conn (mk id)
       with e ->
         Atomic.incr t.failed;
         fail_channel_locked ch
           (match e with Client.Backend_down m -> m | e -> Printexc.to_string e);
         raise
           (match e with
           | Client.Backend_down _ -> e
           | e -> Client.Backend_down (Printexc.to_string e)));
      Atomic.incr t.sent;
      while slot.s_reply = None && slot.s_fail = None do
        Condition.wait ch.cv ch.cm
      done;
      match (slot.s_reply, slot.s_fail) with
      | Some f, _ -> f
      | None, Some m ->
          Atomic.incr t.failed;
          raise (Client.Backend_down m)
      | None, None -> assert false)

(* --- typed request surface --------------------------------------------- *)

let http ?(headers = []) ?(body = "") (t : t) ~meth ~target :
    int * (string * string) list * string =
  let headers = if body = "" then headers else ("x-pdb-body", body) :: headers in
  match request t (fun id -> Binary_proto.Hreq { id; meth; target; headers }) with
  | Binary_proto.Hresp { status; headers; body; _ } -> (status, headers, body)
  | Binary_proto.Error { msg; _ } -> raise (Client.Protocol_error msg)
  | _ -> raise (Client.Protocol_error "unexpected frame type in http answer")

let ping ?(force = true) (t : t) : Client.pong =
  match request ~force t (fun id -> Binary_proto.Ping { id }) with
  | Binary_proto.Pong p ->
      {
        Client.p_role = p.role;
        p_lsn = p.lsn;
        p_stream_id = p.stream_id;
        p_repl_port = p.repl_port;
      }
  | Binary_proto.Error { msg; _ } -> raise (Client.Protocol_error msg)
  | _ -> raise (Client.Protocol_error "unexpected frame type in ping answer")

let ctl (t : t) ~verb ~arg : Client.answer =
  match request t (fun id -> Binary_proto.Ctl { id; verb; arg }) with
  | Binary_proto.Result { v; _ } -> Client.Ok v
  | Binary_proto.Error { msg; _ } -> Client.Err msg
  | _ -> raise (Client.Protocol_error "unexpected frame type in ctl answer")

let query (t : t) (q : string) : Client.answer =
  match request t (fun id -> Binary_proto.Query { id; q }) with
  | Binary_proto.Result { v; _ } -> Client.Ok v
  | Binary_proto.Error { msg; _ } -> Client.Err msg
  | _ -> raise (Client.Protocol_error "unexpected frame type in query answer")

let close (t : t) =
  Array.iter
    (fun ch ->
      Mutex.lock ch.cm;
      ch.c_closed <- true;
      fail_channel_locked ch "pool closed";
      Mutex.unlock ch.cm)
    t.chans;
  Array.iter
    (fun ch ->
      match ch.c_reader with
      | Some th -> ( try Thread.join th with _ -> ())
      | None -> ())
    t.chans
