(** A pool of reader domains serving read traffic from frozen
    [Database.snapshot] views.

    The pool holds one {e generation} at a time: one view, shared by
    every reader domain, frozen at one LSN.  A view is a copy of the
    source handle's object mirror taken at a commit boundary — the
    objects themselves are immutable and shared — so a generation costs
    one table copy, reads no page and pins no page versions.  A
    background refresher domain swaps in a new generation whenever the
    source has moved past the configured lag (or eagerly, when a read
    presents a newer read-your-writes token); the old generation is
    released only after its last in-flight request drains.

    Read jobs are queued and executed {e inside} the reader domains —
    callers (connection-handler threads) block only on a condition
    variable, so query CPU runs in parallel across domains while the
    accept path stays cheap.

    The source is abstract so the primary server ({!primary_source}:
    the live database) and a replica ({!follower_source}: a read-only
    handle advanced under the applier lock) share the exact same
    routing path. *)

module Database = Pmodel.Database

(* --- source abstraction ------------------------------------------------- *)

type source = {
  src_lsn : unit -> int;  (** latest LSN available upstream *)
  src_build : int -> Database.t array * Database.t list;
      (** [src_build n] returns one view per reader, all frozen at a
          single LSN, plus the distinct handles to close when the
          generation retires (views may share a handle). *)
  src_close : unit -> unit;  (** release what the source holds; called by {!stop} *)
}

(* Every reader gets the same view. *)
let shared n v = (Array.make n v, [ v ])

(** Source for a live writable database: one [Database.snapshot] shared
    by all readers.  Safe to build while a [Database.Writer] group is
    running — the copy waits for the current batch's commit boundary. *)
let primary_source (db : Database.t) : source =
  {
    src_lsn = (fun () -> Pstore.Store.lsn (Database.store db));
    src_build = (fun n -> shared n (Database.snapshot db));
    src_close = ignore;
  }

(** Source for a replica following a primary through [apply]: one
    read-only handle per applier incarnation, opened on first use.
    Each build runs under the applier lock, so no delta is mid-apply:
    it advances the handle by the pages applied since its LSN
    ([Database.advance]) and hands out one [Database.snapshot] of it.
    A new incarnation (snapshot install, re-bootstrap, page repair)
    reopens the handle — the only full decode on this side. *)
let follower_source (apply : Prepl.Replica.Apply.t) : source =
  let module A = Prepl.Replica.Apply in
  let handle = ref None in
  let close_handle () =
    Option.iter (fun (_, db) -> try Database.close db with _ -> ()) !handle;
    handle := None
  in
  {
    src_lsn =
      (fun () ->
        A.with_lock apply (fun () ->
            match apply.A.pager with Some p -> Pstore.Pager.lsn p | None -> -1));
    src_build =
      (fun n ->
        A.with_lock apply (fun () ->
            if apply.A.pager = None then failwith "replica has no database file yet";
            let pages = A.take_dirty apply in
            let db =
              match !handle with
              | Some (inc, db) when inc = apply.A.incarnation -> (
                  (* a half-advanced handle has consumed its pages: drop
                     it, so the next build reopens *)
                  try
                    Database.advance db ~pages;
                    db
                  with e ->
                    close_handle ();
                    raise e)
              | _ ->
                  close_handle ();
                  let db = Database.open_ ~vfs:apply.A.vfs ~readonly:true apply.A.path in
                  handle := Some (apply.A.incarnation, db);
                  db
            in
            shared n (Database.snapshot db)));
    src_close = (fun () -> A.with_lock apply close_handle);
  }

(* --- pool --------------------------------------------------------------- *)

type gen = {
  gen_lsn : int;
  views : Database.t array;
  handles : Database.t list;
  mutable inflight : int;
  mutable retired : bool;
  mutable closed : bool;
}

type job = {
  j_exec : Database.t -> unit; (* wraps the caller's body; never raises *)
  j_gen : gen;
  j_mu : Mutex.t;
  j_cv : Condition.t;
  mutable j_done : bool;
}

type t = {
  src : source;
  n : int;
  max_lag_s : float;
  mu : Mutex.t;
  work_cv : Condition.t;
  jobs : job Queue.t;
  mutable cur : gen;
  mutable draining : gen list; (* retired, waiting for in-flight drain *)
  mutable want_refresh : bool; (* eager refresh requested by a waiter *)
  mutable stopping : bool;
  mutable last_refresh_ns : int;
  mutable refreshes : int;
  mutable refresh_errors : int;
  mutable last_refresh_error : string;
  logged_errors : (string, unit) Hashtbl.t; (* distinct messages already logged *)
  mutable last_build_ns : int;
  mutable routed : int;
  mutable catchup_waits : int;
  mutable readers : unit Domain.t array;
  mutable refresher : unit Domain.t option;
  g_lsn : Pobs.Metrics.gauge array;
  g_age : Pobs.Metrics.gauge array;
}

let m_routed =
  Pobs.Metrics.counter "pdb_serving_routed_reads_total"
    ~help:"Read requests served from pool snapshot views"

let m_catchup =
  Pobs.Metrics.counter "pdb_serving_catchup_waits_total"
    ~help:"Reads that waited for a snapshot refresh to satisfy X-PDB-Min-LSN"

let m_refreshes =
  Pobs.Metrics.counter "pdb_serving_refreshes_total"
    ~help:"Snapshot generation refreshes"

let m_build_ns =
  Pobs.Metrics.histogram "pdb_serving_generation_build_ns"
    ~help:"Time to build one snapshot generation (ns)"

(* Build a generation, timed. *)
let build (src : source) n =
  let t0 = Pobs.Monotonic.now_ns () in
  let views, handles = src.src_build n in
  let ns = Pobs.Monotonic.now_ns () - t0 in
  Pobs.Metrics.observe_ns m_build_ns ns;
  (views, handles, ns)

let close_handles (g : gen) =
  List.iter (fun v -> try Database.close v with _ -> ()) g.handles

(* Drop an in-flight reference; the last one out closes a retired
   generation (outside the pool lock — closing releases pinned page
   versions under the pager's own lock). *)
let release_gen t (g : gen) =
  Mutex.lock t.mu;
  g.inflight <- g.inflight - 1;
  let close_now = g.retired && g.inflight = 0 && not g.closed in
  if close_now then begin
    g.closed <- true;
    t.draining <- List.filter (fun x -> x != g) t.draining
  end;
  Mutex.unlock t.mu;
  if close_now then close_handles g

(* Each reader domain serves queries for its whole lifetime; a larger
   minor heap keeps the cross-domain stop-the-world minor-GC barrier —
   whose cost multiplies with domain count — off the request path.
   The size is in words: 4 Mi words, i.e. 32 MiB per reader domain on a
   64-bit host.  Gc.set is per-domain in OCaml 5, so this touches
   nobody else. *)
let reader_gc_setup () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 }

let rec reader_loop t idx =
  Mutex.lock t.mu;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.work_cv t.mu
  done;
  (* On stop, drain the queue before exiting so no submitter is left
     blocked on a job nobody will run. *)
  if Queue.is_empty t.jobs then Mutex.unlock t.mu
  else begin
    let j = Queue.pop t.jobs in
    Mutex.unlock t.mu;
    j.j_exec j.j_gen.views.(idx);
    Mutex.lock j.j_mu;
    j.j_done <- true;
    Condition.broadcast j.j_cv;
    Mutex.unlock j.j_mu;
    release_gen t j.j_gen;
    reader_loop t idx
  end

let set_lsn_gauges t lsn = Array.iter (fun g -> Pobs.Metrics.seti g lsn) t.g_lsn

(* Build a new generation and swap it in; only the refresher domain
   calls this, so there is never more than one build in flight. *)
let refresh t =
  match build t.src t.n with
  | exception e ->
      let msg = Printexc.to_string e in
      Mutex.lock t.mu;
      t.refresh_errors <- t.refresh_errors + 1;
      t.last_refresh_error <- msg;
      t.want_refresh <- false;
      (* each distinct failure is logged once (up to a bounded number
         of distinct messages); /stats always shows the latest *)
      let fresh = (not (Hashtbl.mem t.logged_errors msg)) && Hashtbl.length t.logged_errors < 64 in
      if fresh then Hashtbl.replace t.logged_errors msg ();
      Mutex.unlock t.mu;
      if fresh then Printf.eprintf "reader pool: generation build failed: %s\n%!" msg
  | views, handles, build_ns ->
      let g =
        {
          gen_lsn = Database.view_lsn views.(0);
          views;
          handles;
          inflight = 0;
          retired = false;
          closed = false;
        }
      in
      Mutex.lock t.mu;
      let old = t.cur in
      t.cur <- g;
      t.refreshes <- t.refreshes + 1;
      t.last_build_ns <- build_ns;
      t.last_refresh_ns <- Pobs.Monotonic.now_ns ();
      t.want_refresh <- false;
      old.retired <- true;
      let close_old = old.inflight = 0 && not old.closed in
      if close_old then old.closed <- true else t.draining <- old :: t.draining;
      Mutex.unlock t.mu;
      Pobs.Metrics.inc m_refreshes;
      set_lsn_gauges t g.gen_lsn;
      if close_old then close_handles old

let refresher_loop t =
  let poll_s = 0.005 in
  let lag_ns = int_of_float (t.max_lag_s *. 1e9) in
  while not t.stopping do
    Unix.sleepf poll_s;
    if not t.stopping then begin
      Mutex.lock t.mu;
      let stale =
        t.want_refresh
        || (t.src.src_lsn () > t.cur.gen_lsn
           && Pobs.Monotonic.now_ns () - t.last_refresh_ns >= lag_ns)
      in
      Mutex.unlock t.mu;
      if stale then refresh t
    end
  done

let create ?(max_lag_ms = 50.) ~readers (src : source) : t =
  if readers < 1 then invalid_arg "Reader_pool.create: readers must be >= 1";
  let views, handles, build_ns = build src readers in
  let g0 =
    {
      gen_lsn = Database.view_lsn views.(0);
      views;
      handles;
      inflight = 0;
      retired = false;
      closed = false;
    }
  in
  let labeled name help =
    Array.init readers (fun i ->
        Pobs.Metrics.gauge name ~labels:[ ("reader", string_of_int i) ] ~help)
  in
  let t =
    {
      src;
      n = readers;
      max_lag_s = max_lag_ms /. 1000.;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      jobs = Queue.create ();
      cur = g0;
      draining = [];
      want_refresh = false;
      stopping = false;
      last_refresh_ns = Pobs.Monotonic.now_ns ();
      refreshes = 0;
      refresh_errors = 0;
      last_refresh_error = "";
      logged_errors = Hashtbl.create 4;
      last_build_ns = build_ns;
      routed = 0;
      catchup_waits = 0;
      readers = [||];
      refresher = None;
      g_lsn = labeled "pdb_serving_reader_lsn" "Snapshot LSN served by this pool reader";
      g_age =
        labeled "pdb_serving_reader_age_ms"
          "Age of this pool reader's snapshot generation (ms)";
    }
  in
  set_lsn_gauges t g0.gen_lsn;
  t.readers <-
    Array.init readers (fun i ->
        Domain.spawn (fun () ->
            reader_gc_setup ();
            reader_loop t i));
  t.refresher <- Some (Domain.spawn (fun () -> refresher_loop t));
  t

(** Number of reader domains. *)
let size t = t.n

(** LSN of the generation currently serving. *)
let lsn t =
  Mutex.lock t.mu;
  let l = t.cur.gen_lsn in
  Mutex.unlock t.mu;
  l

(** Latest LSN the pool's source has available (the primary's durable
    LSN, or a replica's applied LSN) — at or ahead of {!lsn}. *)
let source_lsn t = t.src.src_lsn ()

(** Result of routing a read through the pool: [Served (v, lsn)] with
    the LSN of the view that served it, or [Behind best] when the
    caller's [min_lsn] could not be satisfied within the bounded
    catch-up wait (route the request to the primary, or report the lag
    to the client). *)
type 'a outcome = Served of 'a * int | Behind of int

(* How long a read carrying a too-new token waits for the refresher to
   catch up before falling through. *)
let catchup_wait_s t = Float.max 0.05 (Float.min t.max_lag_s 1.0)

exception Stopped

(** Route [f] to a reader domain against the current generation's view.
    [min_lsn] is the client's read-your-writes token: when the pool is
    behind it, request an eager refresh and wait (bounded) for it.
    Exceptions raised by [f] re-raise at the caller. *)
let read (t : t) ?min_lsn (f : Database.t -> 'a) : 'a outcome =
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    raise Stopped
  end;
  (match min_lsn with
  | Some m when m > t.cur.gen_lsn && t.src.src_lsn () >= m ->
      t.catchup_waits <- t.catchup_waits + 1;
      Pobs.Metrics.inc m_catchup;
      t.want_refresh <- true;
      let deadline =
        Pobs.Monotonic.now_ns () + int_of_float (catchup_wait_s t *. 1e9)
      in
      while
        t.cur.gen_lsn < m
        && Pobs.Monotonic.now_ns () < deadline
        && not t.stopping
      do
        Mutex.unlock t.mu;
        Unix.sleepf 0.002;
        Mutex.lock t.mu
      done
  | _ -> ());
  match min_lsn with
  | Some m when m > t.cur.gen_lsn ->
      let best = t.cur.gen_lsn in
      Mutex.unlock t.mu;
      Behind best
  | _ ->
      let g = t.cur in
      g.inflight <- g.inflight + 1;
      let out = ref None in
      let j =
        {
          j_exec = (fun db -> out := Some (try Ok (f db) with e -> Error e));
          j_gen = g;
          j_mu = Mutex.create ();
          j_cv = Condition.create ();
          j_done = false;
        }
      in
      Queue.push j t.jobs;
      t.routed <- t.routed + 1;
      Condition.signal t.work_cv;
      Mutex.unlock t.mu;
      Pobs.Metrics.inc m_routed;
      Mutex.lock j.j_mu;
      while not j.j_done do
        Condition.wait j.j_cv j.j_mu
      done;
      Mutex.unlock j.j_mu;
      (match !out with
      | Some (Ok v) -> Served (v, g.gen_lsn)
      | Some (Error e) -> raise e
      | None -> assert false)

(** Stop the pool: drain queued jobs, join the reader and refresher
    domains, release every generation.  Idempotent. *)
let stop t =
  Mutex.lock t.mu;
  if t.stopping then Mutex.unlock t.mu
  else begin
    t.stopping <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mu;
    Array.iter Domain.join t.readers;
    t.readers <- [||];
    (match t.refresher with Some d -> Domain.join d | None -> ());
    t.refresher <- None;
    Mutex.lock t.mu;
    let gens = t.cur :: t.draining in
    t.draining <- [];
    let to_close = List.filter (fun g -> not g.closed) gens in
    List.iter
      (fun g ->
        g.retired <- true;
        g.closed <- true)
      to_close;
    Mutex.unlock t.mu;
    List.iter close_handles to_close;
    t.src.src_close ()
  end

(* --- introspection ------------------------------------------------------ *)

type pstats = {
  p_readers : int;
  p_gen_lsn : int;
  p_age_ms : float;
  p_refreshes : int;
  p_refresh_errors : int;
  p_last_refresh_error : string;  (** "" until a build fails *)
  p_last_build_ms : float;  (** build time of the current generation *)
  p_routed : int;
  p_catchup_waits : int;
  p_draining : int;
}

let stats t : pstats =
  Mutex.lock t.mu;
  let s =
    {
      p_readers = t.n;
      p_gen_lsn = t.cur.gen_lsn;
      p_age_ms = float_of_int (Pobs.Monotonic.now_ns () - t.last_refresh_ns) /. 1e6;
      p_refreshes = t.refreshes;
      p_refresh_errors = t.refresh_errors;
      p_last_refresh_error = t.last_refresh_error;
      p_last_build_ms = float_of_int t.last_build_ns /. 1e6;
      p_routed = t.routed;
      p_catchup_waits = t.catchup_waits;
      p_draining = List.length t.draining;
    }
  in
  Mutex.unlock t.mu;
  s

(** Push current generation age into the per-reader gauges (called at
    scrape time). *)
let update_metrics t =
  let s = stats t in
  Array.iter (fun g -> Pobs.Metrics.set g s.p_age_ms) t.g_age
