(** Role transitions: the node-side promote/demote state machine and
    the router-side election.

    A {!node} wraps one database file and is, at any moment, either
    {e leading} (read-write, publishing a {!Prepl.Feed}) or
    {e following} (read-only, applying a {!Prepl.Replica} session from
    an upstream feed).  The HTTP/binary front-end reads its serving
    context from an {!Atomic.t} cell per request, so a role flip is one
    [Atomic.set]: tear down the old machinery, build the new, swap the
    context — in-flight requests finish against the old context, the
    next request sees the new role.

    Promotion mints a fresh feed (and with it a fresh random stream id,
    via {!Prepl.Feed.create}).  A deposed primary that later rejoins as
    a follower presents its stale stream id in the replication [Hello];
    the new primary's feed answers with a full snapshot, so the old
    primary converges byte-identically — any writes it acknowledged but
    never replicated are discarded with its incarnation, which is
    exactly why the router only acknowledges semi-sync writes.

    A following node with [cascade] set republishes everything it
    applies through a detached feed on its own replication port, so
    downstream replicas can chain off it (primary → replica →
    replica).  The cascade feed inherits the upstream stream id, which
    keeps LSNs comparable across the whole tree.

    The election ({!run_election}) is router-driven: probe everyone,
    abort if any reachable backend still claims to lead, otherwise pick
    the winner with the pure {!Topology.elect} rule and send it a
    [promote] control verb, then point the remaining replicas at the
    winner with [follow]. *)

open Pserver
open Prepl
open Pmodel

let m_promotions =
  Pobs.Metrics.counter "pdb_cluster_promotions_total"
    ~help:"Follower-to-leader transitions on this node"

let m_demotions =
  Pobs.Metrics.counter "pdb_cluster_demotions_total"
    ~help:"Leader-to-follower transitions on this node"

let m_elections =
  Pobs.Metrics.counter "pdb_cluster_elections_total"
    ~help:"Elections this router has run"

type state =
  | Leading of {
      l_db : Database.t;
      l_feed : Feed.t;
      l_fsrv : Feed.server;
      l_pool : Reader_pool.t;
    }
  | Following of {
      f_sess : Replica.session;
      f_db : Database.t; (* read-only view for non-pool paths *)
      f_pool : Reader_pool.t;
    }

type node = {
  n_path : string;
  n_host : string;
  n_repl_port : int; (* feed port when leading, cascade port when following *)
  n_readers : int;
  n_max_lag_ms : float;
  n_cascade : bool;
  n_cell : Http_server.ctx Atomic.t;
  nm : Mutex.t; (* serialises role transitions *)
  cm : Mutex.t; (* guards [n_cascade_state] only — session callbacks use it *)
  mutable n_cascade_state : (Feed.t * Feed.server) option;
  mutable n_state : state;
  mutable n_transitions : int;
}

let parse_addr (spec : string) : (string * int, string) result =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "bad address %S (want host:port)" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some port when host <> "" && port > 0 && port < 65536 -> Ok (host, port)
      | _ -> Error (Printf.sprintf "bad address %S (want host:port)" spec))

let with_nm node f =
  Mutex.lock node.nm;
  Fun.protect ~finally:(fun () -> Mutex.unlock node.nm) f

let with_cm node f =
  Mutex.lock node.cm;
  Fun.protect ~finally:(fun () -> Mutex.unlock node.cm) f

(* ------------------------------------------------------------------ *)
(* Follower plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let wait_bootstrap ?(timeout_s = 30.) (sess : Replica.session) : bool =
  let apply = sess.Replica.apply in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if Replica.Apply.with_lock apply (fun () -> apply.Replica.Apply.pager <> None)
    then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* Snapshot the applied state for a cascade feed: stream id, LSN and the
   raw file image, all under the applier lock so no batch is mid-apply. *)
let cascade_image (apply : Replica.Apply.t) : (int * int * string) option =
  Replica.Apply.with_lock apply (fun () ->
      match apply.Replica.Apply.pager with
      | None -> None
      | Some p ->
          let lsn = Pstore.Pager.lsn p in
          let sid = apply.Replica.Apply.stream_id in
          let ic = open_in_bin apply.Replica.Apply.path in
          let len = in_channel_length ic in
          let len = len - (len mod Pstore.Pager.page_size) in
          let image = really_input_string ic len in
          close_in ic;
          Some (sid, lsn, image))

let stop_cascade node =
  let prev =
    with_cm node (fun () ->
        let p = node.n_cascade_state in
        node.n_cascade_state <- None;
        p)
  in
  match prev with
  | Some (_, srv) -> ( try Feed.stop_server srv with _ -> ())
  | None -> ()

let install_cascade node ~stream_id ~lsn ~image =
  stop_cascade node;
  match Feed.create_detached ~stream_id ~lsn ~image () with
  | feed ->
      let srv = Feed.serve feed ~host:node.n_host ~port:node.n_repl_port in
      with_cm node (fun () -> node.n_cascade_state <- Some (feed, srv))
  | exception _ -> () (* image not serveable yet; next snapshot rebuilds *)

(* Wire the session's republish hooks and bring the cascade feed up from
   the current applied image (if bootstrapped). *)
let attach_cascade node (sess : Replica.session) =
  sess.Replica.on_record <-
    (fun ~lsn ~pages ->
      with_cm node (fun () ->
          match node.n_cascade_state with
          | Some (feed, _) -> Feed.publish feed ~lsn ~pages
          | None -> ()));
  sess.Replica.on_snapshot <-
    (fun ~stream_id ~lsn ~image -> install_cascade node ~stream_id ~lsn ~image);
  match cascade_image sess.Replica.apply with
  | Some (stream_id, lsn, image) -> install_cascade node ~stream_id ~lsn ~image
  | None -> ()

let detach_cascade_hooks (sess : Replica.session) =
  sess.Replica.on_record <- (fun ~lsn:_ ~pages:_ -> ());
  sess.Replica.on_snapshot <- (fun ~stream_id:_ ~lsn:_ ~image:_ -> ())

(* ------------------------------------------------------------------ *)
(* Role transitions                                                    *)
(* ------------------------------------------------------------------ *)

let rec hooks (node : node) : Http_server.cluster_hooks =
  {
    Http_server.c_role =
      (fun () ->
        match node.n_state with Leading _ -> "primary" | Following _ -> "replica");
    c_lsn =
      (fun () ->
        match node.n_state with
        | Leading l -> Pstore.Store.lsn (Database.store l.l_db)
        | Following f -> Replica.Apply.last_lsn f.f_sess.Replica.apply);
    c_stream_id =
      (fun () ->
        match node.n_state with
        | Leading l -> Feed.stream_id l.l_feed
        | Following f -> Replica.Apply.stream_id f.f_sess.Replica.apply);
    c_repl_port =
      (fun () ->
        match node.n_state with
        | Leading l -> l.l_fsrv.Feed.port
        | Following _ ->
            if with_cm node (fun () -> Option.is_some node.n_cascade_state) then
              node.n_repl_port
            else -1);
    c_ctl =
      (fun ~verb ~arg ->
        match verb with
        | "promote" -> promote node
        | "demote" | "follow" -> follow node ~upstream:arg
        | _ -> Error (Printf.sprintf "unknown control verb %S" verb));
  }

(** Flip this node to primary.  Idempotent when already leading.  Under
    the transition lock: stop the replica session and its serving
    machinery, reopen the file read-write, mint a fresh feed (fresh
    stream id), start a writer and a primary-sourced reader pool, swap
    the serving context.  Returns the feed address followers should
    chain from. *)
and promote (node : node) : (string, string) result =
  with_nm node (fun () ->
      match node.n_state with
      | Leading l -> Ok (Printf.sprintf "%s:%d" node.n_host l.l_fsrv.Feed.port)
      | Following f -> (
          try
            Pobs.Metrics.inc m_promotions;
            (* Detach the cascade hooks FIRST: the session thread must
               not call into a feed we are about to stop. *)
            detach_cascade_hooks f.f_sess;
            stop_cascade node;
            (try Replica.stop f.f_sess with _ -> ());
            (try Reader_pool.stop f.f_pool with _ -> ());
            (try Database.close f.f_db with _ -> ());
            let old = Atomic.get node.n_cell in
            (match old.Http_server.x_writer with
            | Some w -> ( try Database.Writer.stop w with _ -> ())
            | None -> ());
            let db = Database.open_ node.n_path in
            let feed = Feed.create (Database.store db) in
            let fsrv = Feed.serve feed ~host:node.n_host ~port:node.n_repl_port in
            let writer = Database.Writer.start db in
            let pool =
              Reader_pool.create ~max_lag_ms:node.n_max_lag_ms
                ~readers:node.n_readers
                (Reader_pool.primary_source db)
            in
            let ctx =
              {
                old with
                Http_server.x_db = db;
                x_readonly = false;
                x_repl_status = Some (fun () -> Feed.status_json feed);
                x_pool = Some pool;
                x_writer = Some writer;
                x_cluster = Some (hooks node);
              }
            in
            Atomic.set node.n_cell ctx;
            node.n_state <- Leading { l_db = db; l_feed = feed; l_fsrv = fsrv; l_pool = pool };
            node.n_transitions <- node.n_transitions + 1;
            Ok (Printf.sprintf "%s:%d" node.n_host fsrv.Feed.port)
          with e -> Error ("promote failed: " ^ Printexc.to_string e)))

(** Flip this node to follower of [upstream] ("host:port" of a feed).
    Used both to demote a deposed primary and to re-point a replica at a
    newly elected one.  The old primary's stale stream id makes its
    replication [Hello] resolve to a full snapshot — byte-identical
    convergence with the new incarnation. *)
and follow (node : node) ~(upstream : string) : (string, string) result =
  match parse_addr upstream with
  | Error e -> Error e
  | Ok (uhost, uport) ->
      with_nm node (fun () ->
          match node.n_state with
          | Following f
            when f.f_sess.Replica.host = uhost && f.f_sess.Replica.port = uport
            ->
              Ok "already following"
          | st -> (
              try
                (match st with
                | Leading l ->
                    Pobs.Metrics.inc m_demotions;
                    (match (Atomic.get node.n_cell).Http_server.x_writer with
                    | Some w -> ( try Database.Writer.stop w with _ -> ())
                    | None -> ());
                    (try Feed.stop_server l.l_fsrv with _ -> ());
                    (try Feed.detach l.l_feed with _ -> ());
                    (try Reader_pool.stop l.l_pool with _ -> ());
                    (try Database.close l.l_db with _ -> ())
                | Following f ->
                    detach_cascade_hooks f.f_sess;
                    stop_cascade node;
                    (try Replica.stop f.f_sess with _ -> ());
                    (try Reader_pool.stop f.f_pool with _ -> ());
                    (try Database.close f.f_db with _ -> ()));
                setup_following node ~uhost ~uport
              with e -> Error ("follow failed: " ^ Printexc.to_string e)))

(* Bring up the follower machinery toward [uhost:uport].  Caller holds
   the transition lock and has torn the previous state down. *)
and setup_following (node : node) ~uhost ~uport : (string, string) result =
  let sess = Replica.start ~host:uhost ~port:uport node.n_path in
  if not (wait_bootstrap sess) then begin
    (try Replica.stop sess with _ -> ());
    Error (Printf.sprintf "bootstrap from %s:%d timed out" uhost uport)
  end
  else begin
    let apply = sess.Replica.apply in
    let pool =
      Reader_pool.create ~max_lag_ms:node.n_max_lag_ms ~readers:node.n_readers
        (Reader_pool.follower_source apply)
    in
    let db =
      Replica.Apply.with_lock apply (fun () ->
          Database.open_ ~readonly:true node.n_path)
    in
    if node.n_cascade then attach_cascade node sess;
    let old = Atomic.get node.n_cell in
    let ctx =
      {
        old with
        Http_server.x_db = db;
        x_readonly = true;
        x_repl_status = Some (fun () -> Replica.status_json sess);
        x_pool = Some pool;
        x_writer = None;
        x_cluster = Some (hooks node);
      }
    in
    Atomic.set node.n_cell ctx;
    node.n_state <- Following { f_sess = sess; f_db = db; f_pool = pool };
    node.n_transitions <- node.n_transitions + 1;
    Ok (Printf.sprintf "following %s:%d" uhost uport)
  end

(* ------------------------------------------------------------------ *)
(* Construction and serving                                            *)
(* ------------------------------------------------------------------ *)

let create_leading ?(readers = 2) ?(max_lag_ms = 50.) ?(cascade = false) ~path
    ~host ~repl_port () : node =
  let db = Database.open_ path in
  let feed = Feed.create (Database.store db) in
  let fsrv = Feed.serve feed ~host ~port:repl_port in
  let pool =
    Reader_pool.create ~max_lag_ms ~readers (Reader_pool.primary_source db)
  in
  let ctx0 =
    {
      Http_server.x_db = db;
      x_readonly = false;
      x_repl_status = Some (fun () -> Feed.status_json feed);
      x_pool = Some pool;
      x_writer = None; (* the HTTP server starts its own at serve time *)
      x_serving = None;
      x_cluster = None;
    }
  in
  {
    n_path = path;
    n_host = host;
    n_repl_port = repl_port;
    n_readers = readers;
    n_max_lag_ms = max_lag_ms;
    n_cascade = cascade;
    n_cell = Atomic.make ctx0;
    nm = Mutex.create ();
    cm = Mutex.create ();
    n_cascade_state = None;
    n_state = Leading { l_db = db; l_feed = feed; l_fsrv = fsrv; l_pool = pool };
    n_transitions = 0;
  }

let create_following ?(readers = 2) ?(max_lag_ms = 50.) ?(cascade = false)
    ~path ~host ~repl_port ~upstream () : (node, string) result =
  match parse_addr upstream with
  | Error e -> Error e
  | Ok (uhost, uport) ->
      let sess = Replica.start ~host:uhost ~port:uport path in
      if not (wait_bootstrap sess) then begin
        (try Replica.stop sess with _ -> ());
        Error (Printf.sprintf "bootstrap from %s timed out" upstream)
      end
      else begin
        let apply = sess.Replica.apply in
        let pool = Reader_pool.create ~max_lag_ms ~readers (Reader_pool.follower_source apply) in
        let db =
          Replica.Apply.with_lock apply (fun () ->
              Database.open_ ~readonly:true path)
        in
        let ctx0 =
          {
            Http_server.x_db = db;
            x_readonly = true;
            x_repl_status = Some (fun () -> Replica.status_json sess);
            x_pool = Some pool;
            x_writer = None;
            x_serving = None;
            x_cluster = None;
          }
        in
        let node =
          {
            n_path = path;
            n_host = host;
            n_repl_port = repl_port;
            n_readers = readers;
            n_max_lag_ms = max_lag_ms;
            n_cascade = cascade;
            n_cell = Atomic.make ctx0;
            nm = Mutex.create ();
            cm = Mutex.create ();
            n_cascade_state = None;
            n_state = Following { f_sess = sess; f_db = db; f_pool = pool };
            n_transitions = 0;
          }
        in
        if cascade then attach_cascade node sess;
        Ok node
      end

(** Serve the node's HTTP + binary front-end.  Blocks like
    {!Pserver.Http_server.serve}; the cluster hooks and the swappable
    context cell are wired in, so a [Ctl] verb arriving on the binary
    port can flip the node's role while this serve loop keeps running. *)
let serve ?max_requests ?stop ?ready ?binary_port ?binary_ready (node : node)
    ~port () =
  match node.n_state with
  | Leading l ->
      Http_server.serve ~host:node.n_host ?max_requests ?stop ?ready
        ?binary_port ?binary_ready
        ~repl_status:(fun () -> Feed.status_json l.l_feed)
        ~pool:l.l_pool ~cluster:(hooks node) ~ctx_cell:node.n_cell l.l_db ~port
        ()
  | Following f ->
      Http_server.serve ~host:node.n_host ?max_requests ?stop ?ready
        ?binary_port ?binary_ready ~readonly:true
        ~repl_status:(fun () -> Replica.status_json f.f_sess)
        ~pool:f.f_pool ~cluster:(hooks node) ~ctx_cell:node.n_cell f.f_db ~port
        ()

(** Tear the node down after its serve loop exits. *)
let shutdown (node : node) =
  with_nm node (fun () ->
      match node.n_state with
      | Leading l ->
          (match (Atomic.get node.n_cell).Http_server.x_writer with
          | Some w -> ( try Database.Writer.stop w with _ -> ())
          | None -> ());
          (try Feed.stop_server l.l_fsrv with _ -> ());
          (try Feed.detach l.l_feed with _ -> ());
          (try Reader_pool.stop l.l_pool with _ -> ());
          (try Database.close l.l_db with _ -> ())
      | Following f ->
          detach_cascade_hooks f.f_sess;
          stop_cascade node;
          (try Replica.stop f.f_sess with _ -> ());
          (try Reader_pool.stop f.f_pool with _ -> ());
          (try Database.close f.f_db with _ -> ()))

(* ------------------------------------------------------------------ *)
(* Router-side election                                                *)
(* ------------------------------------------------------------------ *)

(** Run one election over the fleet.  Probes every backend fresh (the
    cached health view may be seconds stale); aborts if any reachable
    backend still claims to be primary — the old primary rejoining
    mid-election must win by default, not be fenced off.  Otherwise the
    pure {!Topology.elect} rule picks the winner (highest durable LSN,
    lowest address on ties — every router that sees the same candidates
    picks the same node), the winner is told to [promote], and the
    remaining reachable replicas are pointed at its feed with [follow].
    Returns the new primary's feed address. *)
let run_election (topo : Topology.t) : (string, string) result =
  Pobs.Metrics.inc m_elections;
  let pongs =
    Array.map
      (fun (b : Topology.backend) ->
        match Backend_pool.ping b.Topology.b_pool with
        | p -> Some p
        | exception _ -> None)
      topo.Topology.backends
  in
  let claims_primary =
    Array.exists
      (function Some p -> p.Client.p_role = "primary" | None -> false)
      pongs
  in
  if claims_primary then Error "a primary is still reachable; election aborted"
  else begin
    let candidates = ref [] in
    Array.iteri
      (fun i (b : Topology.backend) ->
        match pongs.(i) with
        | Some p when p.Client.p_role = "replica" ->
            candidates := (b.Topology.b_addr, p.Client.p_lsn) :: !candidates
        | _ -> ())
      topo.Topology.backends;
    match Topology.elect !candidates with
    | None -> Error "no reachable replica to promote"
    | Some addr -> (
        let b = Option.get (Topology.backend_by_addr topo addr) in
        match Backend_pool.ctl b.Topology.b_pool ~verb:"promote" ~arg:"" with
        | Client.Ok repl_addr ->
            topo.Topology.current_primary <- Some addr;
            b.b_role <- "primary";
            Array.iteri
              (fun i (ob : Topology.backend) ->
                if ob.Topology.b_addr <> addr then
                  match pongs.(i) with
                  | Some p when p.Client.p_role = "replica" -> (
                      try
                        ignore
                          (Backend_pool.ctl ob.Topology.b_pool ~verb:"follow"
                             ~arg:repl_addr)
                      with _ -> ())
                  | _ -> ())
              topo.Topology.backends;
            Ok repl_addr
        | Client.Err m -> Error ("promote refused by " ^ addr ^ ": " ^ m)
        | exception e ->
            Error ("promote of " ^ addr ^ " failed: " ^ Printexc.to_string e))
  end

(** Resolve a dual-primary observation: the router's designated primary
    wins if it is among the claimants (LSNs from different stream
    incarnations are not comparable, so designation beats LSN);
    otherwise the election rule decides.  Losers are demoted to follow
    the winner's feed. *)
let resolve_dual (topo : Topology.t) (prims : Topology.backend list) : unit =
  match prims with
  | [] | [ _ ] -> ()
  | _ ->
      let winner =
        match topo.Topology.current_primary with
        | Some addr
          when List.exists (fun (b : Topology.backend) -> b.Topology.b_addr = addr) prims
          ->
            List.find (fun (b : Topology.backend) -> b.Topology.b_addr = addr) prims
        | _ -> (
            match
              Topology.elect
                (List.map
                   (fun (b : Topology.backend) -> (b.Topology.b_addr, b.b_lsn))
                   prims)
            with
            | Some a ->
                List.find (fun (b : Topology.backend) -> b.Topology.b_addr = a) prims
            | None -> List.hd prims)
      in
      topo.Topology.current_primary <- Some winner.Topology.b_addr;
      let w_repl =
        Printf.sprintf "%s:%d" winner.Topology.b_host winner.Topology.b_repl_port
      in
      List.iter
        (fun (b : Topology.backend) ->
          if b != winner then begin
            (try
               ignore (Backend_pool.ctl b.Topology.b_pool ~verb:"demote" ~arg:w_repl)
             with _ -> ());
            b.b_role <- "unknown"
          end)
        prims
