(* pbench — the OCaml half of the repository benchmark (see README.md).

     pbench gen SIZE SEED FILE KEYS      generate the flora dataset
     pbench oracle FILE QUERIES ANSWERS  reference answers (legacy engine)
     pbench load CONFIG OUT              drive servers over loopback HTTP
     pbench inproc CONFIG OUT            in-process traced pass
     pbench acked FILE ACKED             check acknowledged revisions survive

   run.py orchestrates these subcommands. *)

open Pmodel

let now_ns () = Pobs.Monotonic.now_ns ()

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let l = go [] in
  close_in ic;
  l

(* Answers travel one per line; a rendered value could in principle hold
   a newline, so escape them. *)
let escape s = String.concat "\\n" (String.split_on_char '\n' s)

let words l = String.split_on_char ' ' l |> List.filter (( <> ) "")

(* Config files are "key arg..." lines; a key may repeat. *)
let config path = List.filter_map (fun l -> match words l with k :: a -> Some (k, a) | [] -> None) (read_lines path)
let cfg_all c k = List.filter_map (fun (k', a) -> if k = k' then Some a else None) c

let cfg1 c k =
  match cfg_all c k with (v :: _) :: _ -> v | _ -> failwith ("config: missing " ^ k)

(* --- gen ------------------------------------------------------------------- *)

let sizes = [ ("small", 10); ("large", 60) ]

(* The dataset: a Flora_gen flora ("flora"), its perturbed revision
   ("revision") and an empty working classification ("working") that
   revisions link into.  The keys file lists what the op generator
   draws from: context oids, taxon oids per rank, every name epithet. *)
let gen size seed file keys =
  let families =
    match List.assoc_opt size sizes with Some f -> f | None -> failwith ("unknown size " ^ size)
  in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ file; file ^ ".journal" ];
  let db = Database.open_ file in
  let flora, ctx2, work =
    Database.with_tx db (fun () ->
        Taxonomy.Tax_schema.install db;
        let params =
          {
            Taxonomy.Flora_gen.families;
            genera_per_family = 10;
            species_per_genus = 10;
            specimens_per_species = 3;
            seed;
          }
        in
        let flora = Taxonomy.Flora_gen.generate db ~params ~name:"flora" () in
        let ctx2 = Taxonomy.Flora_gen.perturb db flora ~name:"revision" () in
        let work = Database.create_context db "working" in
        (flora, ctx2, work))
  in
  let epithets =
    List.map
      (fun oid -> "epithet " ^ Value.as_string (Database.get_attr db oid "epithet"))
      (Database.extent_list db Taxonomy.Tax_schema.name)
  in
  let oids tag l = List.map (fun o -> Printf.sprintf "%s %d" tag o) l in
  write_lines keys
    ([
       Printf.sprintf "ctx flora %d" flora.Taxonomy.Flora_gen.ctx;
       Printf.sprintf "ctx revision %d" ctx2;
       Printf.sprintf "ctx working %d" work;
       Printf.sprintf "objects %d" (Database.object_count db);
       Printf.sprintf "names %d" (List.length epithets);
     ]
    @ oids "family" flora.Taxonomy.Flora_gen.root_taxa
    @ oids "genus" flora.Taxonomy.Flora_gen.genus_taxa
    @ oids "species" flora.Taxonomy.Flora_gen.species_taxa
    @ epithets);
  Database.close db

(* --- oracle ---------------------------------------------------------------- *)

(* Reference answers: the tree-walking interpreter with non-CSR
   traversal, run over the generated file before any server sees it. *)
let oracle file queries answers =
  let db = Database.open_ ~readonly:true file in
  let out =
    List.map
      (fun q ->
        match Pool_lang.Pool.query ~config:Pool_lang.Pool.legacy_config db q with
        | v -> escape (Value.to_string v ^ "\n")
        | exception e -> "!error " ^ Printexc.to_string e)
      (read_lines queries)
  in
  Database.close db;
  write_lines answers out

(* --- ops ------------------------------------------------------------------- *)

type read_op = { kind : string; q : string; expect : string }

(* ops file: "kind<TAB>query<TAB>expected answer" *)
let load_reads path =
  Array.of_list
    (List.map
       (fun l ->
         match String.split_on_char '\t' l with
         | [ kind; q; expect ] -> { kind; q; expect }
         | _ -> failwith ("bad op line: " ^ l))
       (read_lines path))

(* The read-your-writes probe after a revision: everything the working
   classification holds under the genus, which is exactly the client's
   own links there. *)
let ryw_query genus =
  Printf.sprintf
    "count(descendants(first(select t from Taxon t where oid(t) = %d), 'Circumscribes', \
     first(select c from Context c where c.name = 'working')))"
    genus

let ryw_expect n = Value.to_string (Value.VInt n) ^ "\n"

(* --- HTTP/1.1 keep-alive client ------------------------------------------- *)

let url_encode s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

type conn = { port : int; mutable fd : Unix.file_descr option; mutable buf : string; chunk : Bytes.t }

let connect port = { port; fd = None; buf = ""; chunk = Bytes.create 65536 }

let close_conn c =
  (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  c.fd <- None;
  c.buf <- ""

let fd_of c =
  match c.fd with
  | Some fd -> fd
  | None ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port))
       with e -> Unix.close fd; raise e);
      c.fd <- Some fd;
      fd

let fill c fd =
  let n = Unix.read fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "connection closed";
  c.buf <- c.buf ^ Bytes.sub_string c.chunk 0 n

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

type resp = { status : int; headers : (string * string) list; body : string }

(* One request, one response; any transport or framing error closes the
   connection (the next request reconnects) and re-raises. *)
let request c ?(headers = []) meth target : resp =
  try
    let fd = fd_of c in
    let req =
      Printf.sprintf "%s %s HTTP/1.1\r\nHost: bench\r\n%s\r\n" meth target
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
    in
    let n = String.length req in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd req !off (n - !off)
    done;
    let rec head () = match find_sub c.buf "\r\n\r\n" with Some i -> i | None -> fill c fd; head () in
    let hend = head () in
    let lines = String.split_on_char '\n' (String.sub c.buf 0 hend) |> List.map String.trim in
    let status =
      match lines with
      | l :: _ -> ( match words l with _ :: s :: _ -> int_of_string s | _ -> failwith "bad status")
      | [] -> failwith "empty response"
    in
    let hdrs =
      List.filter_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i ->
              Some
                ( String.lowercase_ascii (String.sub l 0 i),
                  String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
          | None -> None)
        (List.tl lines)
    in
    let len = match List.assoc_opt "content-length" hdrs with Some v -> int_of_string v | None -> 0 in
    let total = hend + 4 + len in
    while String.length c.buf < total do
      fill c fd
    done;
    let body = String.sub c.buf (hend + 4) len in
    c.buf <- String.sub c.buf total (String.length c.buf - total);
    if List.assoc_opt "connection" hdrs = Some "close" then close_conn c;
    { status; headers = hdrs; body }
  with e ->
    close_conn c;
    raise e

(* --- spans (in-process pass) ----------------------------------------------- *)

(* A span: op id, own id, parent id (0 = root), name, start, end.  The
   in-process pass records them around calls into the public API; they
   go to one mutex-guarded buffer because generation builds run on the
   reader pool's refresher domain. *)
type span = { s_op : int; s_id : int; s_parent : int; s_name : string; s_t0 : int; s_t1 : int }

let spans : span list ref = ref []
let span_mu = Mutex.create ()
let span_ids = Atomic.make 0
let tracing = ref false

(* Untraced, [f] gets id -1, so spans opened inside it while tracing
   is switched on are not taken for roots. *)
let with_span ~op ?(parent = 0) name (f : int -> 'a) : 'a =
  if not !tracing then f (-1)
  else begin
    let id = Atomic.fetch_and_add span_ids 1 + 1 in
    let t0 = now_ns () in
    let finish () =
      let s = { s_op = op; s_id = id; s_parent = parent; s_name = name; s_t0 = t0; s_t1 = now_ns () } in
      Mutex.lock span_mu;
      spans := s :: !spans;
      Mutex.unlock span_mu
    in
    match f id with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* Per span, keyed "kind/name" by the root span of its op (a root is
   keyed by its own name): count, total time, self time (duration minus
   the time its direct children cover). *)
let span_summary (l : span list) =
  let root = Hashtbl.create 1024 in
  List.iter (fun s -> if s.s_parent = 0 then Hashtbl.replace root s.s_op s.s_name) l;
  let key s =
    if s.s_parent = 0 then s.s_name
    else Option.value ~default:"?" (Hashtbl.find_opt root s.s_op) ^ "/" ^ s.s_name
  in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.s_parent <> 0 then
        Hashtbl.replace child s.s_parent
          ((s.s_t1 - s.s_t0) + Option.value ~default:0 (Hashtbl.find_opt child s.s_parent)))
    l;
  let agg = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.s_t1 - s.s_t0 in
      let self = d - Option.value ~default:0 (Hashtbl.find_opt child s.s_id) in
      let n, tot, sf = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt agg (key s)) in
      Hashtbl.replace agg (key s) (n + 1, tot + d, sf + self))
    l;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg [])

(* --- shared op loops -------------------------------------------------------- *)

(* Records written by [load] and [inproc], one line each:
     R kind due start end ok   closed-loop read
     C - due start end ok      create (due = revision's scheduled time)
     L - due start end ok      link (due = when the create answered)
     T - due start end ok      tokened read (due = when the link answered)
     late due ns               how late the revision started
     A taxon link genus        an acknowledged revision
   Times are ns from the start of the window. *)
type recorder = { mu : Mutex.t; mutable lines : string list; mutable attempted : int; mutable failed : int; mutable shown : int }

let recorder () = { mu = Mutex.create (); lines = []; attempted = 0; failed = 0; shown = 0 }

let note r line =
  Mutex.lock r.mu;
  r.lines <- line :: r.lines;
  Mutex.unlock r.mu

let outcome r ~t0 code kind due start ok why =
  Mutex.lock r.mu;
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.shown < 5 then begin
      r.shown <- r.shown + 1;
      Printf.eprintf "pbench: failed %s %s: %s\n%!" code kind why
    end
  end;
  r.lines <-
    Printf.sprintf "%s %s %d %d %d %d" code kind (due - t0) (start - t0) (now_ns () - t0)
      (if ok then 1 else 0)
    :: r.lines;
  Mutex.unlock r.mu

let write_records r out =
  write_lines out (List.rev r.lines @ [ Printf.sprintf "S %d %d" r.attempted r.failed ])

(* A closed-loop reader: cycle through [ops] until [t_end]. *)
let reader_loop r ~t0 ~t_end ~(ops : read_op array) (exec : read_op -> (string, string) result) =
  let i = ref 0 in
  while now_ns () < t_end do
    let op = ops.(!i mod Array.length ops) in
    incr i;
    let start = now_ns () in
    match exec op with
    | Ok body ->
        let ok = escape body = op.expect in
        outcome r ~t0 "R" op.kind start start ok
          (if ok then "" else Printf.sprintf "%s => %S, expected %S" op.q body op.expect)
    | Error why -> outcome r ~t0 "R" op.kind start start false (op.q ^ ": " ^ why)
  done

(* Mutations a revision performs, abstracted over transport. *)
type reviser = {
  create : tag:string -> (int, string) result;
  link : genus:int -> taxon:int -> (int * int, string) result; (* link oid, lsn *)
  ryw : genus:int -> lsn:int -> (string, string) result;
}

(* Open-loop revisions at [rate] per second: create a Taxon, link it
   under a genus in the working classification, read the genus back
   with the link's LSN as read-your-writes token.  [own] counts this
   client's links per genus, including earlier windows' on the same
   database. *)
let revision_loop r ~t0 ~t_end ~rate ~tag ~(genera : int array) ~own (rv : reviser) =
  if rate > 0. then begin
    let period = int_of_float (1e9 /. rate) in
    let i = ref 0 in
    while t0 + (!i * period) < t_end do
      let due = t0 + (!i * period) in
      let wait = due - now_ns () in
      if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
      let start = now_ns () in
      note r (Printf.sprintf "late %d %d" (due - t0) (start - due));
      let genus = genera.(!i mod Array.length genera) in
      let ntag = Printf.sprintf "rev_%s_%d" tag !i in
      incr i;
      match rv.create ~tag:ntag with
      | Error why -> outcome r ~t0 "C" "-" due start false why
      | Ok taxon -> (
          outcome r ~t0 "C" "-" due start true "";
          let t_link = now_ns () in
          match rv.link ~genus ~taxon with
          | Error why -> outcome r ~t0 "L" "-" t_link t_link false why
          | Ok (link, lsn) -> (
              outcome r ~t0 "L" "-" t_link t_link true "";
              let n = 1 + Option.value ~default:0 (Hashtbl.find_opt own genus) in
              Hashtbl.replace own genus n;
              note r (Printf.sprintf "A %d %d %d" taxon link genus);
              let t_read = now_ns () in
              match rv.ryw ~genus ~lsn with
              | Ok body ->
                  let ok = body = ryw_expect n in
                  outcome r ~t0 "T" "-" t_read t_read ok
                    (Printf.sprintf "genus #%d at lsn %d => %S, expected %S" genus lsn body
                       (ryw_expect n))
              | Error why -> outcome r ~t0 "T" "-" t_read t_read false why))
    done
  end

let created body =
  match words (String.trim body) with
  | [ "created"; h ] when String.length h > 1 && h.[0] = '#' ->
      int_of_string_opt (String.sub h 1 (String.length h - 1))
  | _ -> None

(* --- load ------------------------------------------------------------------ *)

let http_reviser (c : conn) ~work : reviser =
  let post target =
    match request c "POST" target with
    | { status = 200; body; headers } -> (
        match (created body, Option.bind (List.assoc_opt "x-pdb-lsn" headers) int_of_string_opt) with
        | Some oid, Some lsn -> Ok (oid, lsn)
        | _ -> Error ("unexpected answer: " ^ body))
    | { status; body; _ } -> Error (Printf.sprintf "%d %s" status (String.trim body))
    | exception e -> Error (Printexc.to_string e)
  in
  {
    create =
      (fun ~tag ->
        Result.map fst (post ("/create?class=Taxon&rank=Species&notes=" ^ url_encode tag)));
    link =
      (fun ~genus ~taxon ->
        post
          (Printf.sprintf "/link?rel=Circumscribes&origin=%d&destination=%d&context=%d" genus
             taxon work));
    ryw =
      (fun ~genus ~lsn ->
        match
          request c ~headers:[ ("X-PDB-Min-LSN", string_of_int lsn) ] "GET"
            ("/query?q=" ^ url_encode (ryw_query genus))
        with
        | { status = 200; body; _ } -> Ok body
        | { status; body; _ } -> Error (Printf.sprintf "%d %s" status (String.trim body))
        | exception e -> Error (Printexc.to_string e));
  }

let http_read (c : conn) (op : read_op) =
  match request c "GET" ("/query?q=" ^ url_encode op.q) with
  | { status = 200; body; _ } -> Ok body
  | { status; body; _ } -> Error (Printf.sprintf "%d %s" status (String.trim body))
  | exception e -> Error (Printexc.to_string e)

(* Config: seconds S; rate R; tag T; reader PORT OPSFILE (one per
   connection); writer PORT GENERAFILE WORKING_CTX; prior FILE (genera
   of links made by an earlier window on the same database).  With "once", each
   reader sends its op list exactly once and there is no time window
   (the answer-checking self-test). *)
let load cfg_path out =
  let c = config cfg_path in
  let seconds = float_of_string (cfg1 c "seconds") in
  let rate = float_of_string (cfg1 c "rate") in
  let tag = cfg1 c "tag" in
  let once = cfg_all c "once" <> [] in
  let readers =
    List.map
      (function
        | [ port; ops ] -> (connect (int_of_string port), load_reads ops)
        | _ -> failwith "reader PORT OPS")
      (cfg_all c "reader")
  in
  let r = recorder () in
  (* connect everything before the clock starts *)
  List.iter (fun (cn, _) -> ignore (fd_of cn)) readers;
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  if once then
    List.iter
      (fun (cn, ops) ->
        Array.iter
          (fun op ->
            let start = now_ns () in
            match http_read cn op with
            | Ok body -> outcome r ~t0 "R" op.kind start start (escape body = op.expect)
                  (Printf.sprintf "%S (self-test; one wrong expectation is planted)" body)
            | Error why -> outcome r ~t0 "R" op.kind start start false why)
          ops)
      readers
  else begin
    let threads =
      List.map
        (fun (cn, ops) -> Thread.create (fun () -> reader_loop r ~t0 ~t_end ~ops (http_read cn)) ())
        readers
    in
    let writer =
      match cfg_all c "writer" with
      | [ port; genera; work ] :: _ ->
          let cn = connect (int_of_string port) in
          ignore (fd_of cn);
          let genera = Array.of_list (List.map int_of_string (read_lines genera)) in
          let rv = http_reviser cn ~work:(int_of_string work) in
          let own = Hashtbl.create 64 in
          List.iter
            (fun g -> Hashtbl.replace own g (1 + Option.value ~default:0 (Hashtbl.find_opt own g)))
            (List.concat_map (fun f -> List.map int_of_string (read_lines f)) (List.concat (cfg_all c "prior")));
          Some (Thread.create (fun () -> revision_loop r ~t0 ~t_end ~rate ~tag ~genera ~own rv) ())
      | _ -> None
    in
    List.iter Thread.join threads;
    Option.iter Thread.join writer
  end;
  write_records r out

(* --- inproc ---------------------------------------------------------------- *)

(* The same op streams, run against the library in this process, with
   nested spans around the public calls the server makes: Pool.query
   inside Reader_pool.read's closure, the mutation body inside
   Database.Writer.submit, Database.snapshot/snapshot_clone inside
   generation builds.  Config: file F; mode legacy|pool; seconds S;
   rate R; tag T; reads OPSFILE; writer GENERAFILE WORKING_CTX. *)
let inproc cfg_path out =
  let c = config cfg_path in
  let file = cfg1 c "file" in
  let pooled = cfg1 c "mode" = "pool" in
  let seconds = float_of_string (cfg1 c "seconds") in
  let rate = float_of_string (cfg1 c "rate") in
  let tag = cfg1 c "tag" in
  let ops = load_reads (cfg1 c "reads") in
  let db = Database.open_ file in
  let op_ids = Atomic.make 0 in
  (* Every op is a root span named after its kind (read, ryw, write,
     generation); the calls it makes nest under it. *)
  let op_span kind f =
    let op = Atomic.fetch_and_add op_ids 1 + 1 in
    with_span ~op kind (fun root -> f ~op ~root)
  in
  let query ~op ~parent view q =
    with_span ~op ~parent "pool.query" (fun _ -> Value.to_string (Pool_lang.Pool.query view q) ^ "\n")
  in
  (* the pool's initial generation is traced too, so every run records
     at least one generation build *)
  tracing := true;
  let pool, writer =
    if not pooled then (None, None)
    else begin
      let base = Pserver.Reader_pool.primary_source db in
      let src =
        {
          base with
          Pserver.Reader_pool.src_build =
            (fun n ->
              op_span "generation" (fun ~op ~root ->
                  let b =
                    with_span ~op ~parent:root "database.snapshot" (fun _ -> Database.snapshot db)
                  in
                  let views =
                    Array.init n (fun _ ->
                        with_span ~op ~parent:root "database.snapshot_clone" (fun _ ->
                            Database.snapshot_clone b))
                  in
                  (views, b :: Array.to_list views)));
        }
      in
      let pool = Pserver.Reader_pool.create ~readers:1 src in
      (Some pool, Some (Database.Writer.start db))
    end
  in
  tracing := false;
  let read_via ?min_lsn ~op ~root (q : string) : (string, string) result =
    match pool with
    | None -> ( try Ok (query ~op ~parent:root db q) with e -> Error (Printexc.to_string e))
    | Some pool -> (
        match
          with_span ~op ~parent:root "reader_pool.read" (fun parent ->
              Pserver.Reader_pool.read pool ?min_lsn (fun view -> query ~op ~parent view q))
        with
        | Pserver.Reader_pool.Served (v, _) -> Ok v
        | Pserver.Reader_pool.Behind _ -> (
            let w = Option.get writer in
            match
              with_span ~op ~parent:root "writer.read" (fun parent ->
                  Database.Writer.read w (fun live -> query ~op ~parent live q))
            with
            | _, Ok v -> Ok v
            | _, Error e -> Error (Printexc.to_string e))
        | exception e -> Error (Printexc.to_string e))
  in
  let submit f =
    let w = Option.get writer in
    try
      Ok
        (op_span "write" (fun ~op ~root ->
             with_span ~op ~parent:root "writer.submit" (fun parent ->
                 Database.Writer.submit w (fun live ->
                     with_span ~op ~parent "writer.body" (fun _ -> f live)))))
    with e -> Error (Printexc.to_string e)
  in
  let rv =
    let work = match cfg_all c "writer" with [ _; w ] :: _ -> int_of_string w | _ -> 0 in
    {
      create =
        (fun ~tag ->
          Result.map snd
            (submit (fun live ->
                 Database.create live "Taxon"
                   [ ("rank", Value.VString "Species"); ("notes", Value.VString tag) ])));
      link =
        (fun ~genus ~taxon ->
          submit (fun live ->
              Database.link live ~context:work "Circumscribes" ~origin:genus ~destination:taxon));
      ryw =
        (fun ~genus ~lsn ->
          op_span "ryw" (fun ~op ~root -> read_via ~min_lsn:lsn ~op ~root (ryw_query genus)));
    }
  in
  let genera =
    match cfg_all c "writer" with
    | [ g; _ ] :: _ -> Array.of_list (List.map int_of_string (read_lines g))
    | _ -> [||]
  in
  (* two halves: untraced, then traced, so the span cost shows as the
     difference between them *)
  let own = Hashtbl.create 64 in
  let phase name ~traced ~tag =
    tracing := traced;
    let r = recorder () in
    let t0 = now_ns () in
    let t_end = t0 + int_of_float (seconds /. 2. *. 1e9) in
    let th =
      Thread.create
        (fun () ->
          reader_loop r ~t0 ~t_end ~ops (fun o -> op_span "read" (fun ~op ~root -> read_via ~op ~root o.q)))
        ()
    in
    if pooled then revision_loop r ~t0 ~t_end ~rate ~tag ~genera ~own rv;
    Thread.join th;
    tracing := false;
    List.rev_map (fun l -> name ^ " " ^ l) (Printf.sprintf "S %d %d" r.attempted r.failed :: r.lines)
  in
  let plain = phase "plain" ~traced:false ~tag:(tag ^ "a") in
  let traced = phase "traced" ~traced:true ~tag:(tag ^ "b") in
  Option.iter Pserver.Reader_pool.stop pool;
  Option.iter Database.Writer.stop writer;
  Database.close db;
  Mutex.lock span_mu;
  let all = !spans in
  Mutex.unlock span_mu;
  let summary =
    List.map
      (fun (name, (n, tot, self)) -> Printf.sprintf "span %s %d %d %d" name n tot self)
      (span_summary all)
  in
  write_lines out (plain @ traced @ summary);
  write_lines (out ^ ".spans")
    (List.rev_map
       (fun s -> Printf.sprintf "%d %d %d %s %d %d" s.s_op s.s_id s.s_parent s.s_name s.s_t0 s.s_t1)
       all)

(* --- acked ----------------------------------------------------------------- *)

(* After a crash: every acknowledged revision (taxon, link, genus) must
   be in the reopened file, linked where it was acknowledged. *)
let acked file acked_path work =
  let db = Database.open_ file in
  let missing = ref 0 and n = ref 0 in
  List.iter
    (fun l ->
      match List.map int_of_string (words l) with
      | [ taxon; link; genus ] -> (
          incr n;
          let ok =
            Database.class_of db taxon = Some "Taxon"
            &&
            match Database.get db link with
            | Some o ->
                Obj.origin o = genus && Obj.destination o = taxon && Obj.context o = Some work
            | None -> false
          in
          if not ok then begin
            incr missing;
            if !missing <= 5 then Printf.eprintf "pbench: acked revision lost: %s\n%!" l
          end)
      | _ -> failwith ("bad acked line: " ^ l))
    (read_lines acked_path);
  Database.close db;
  Printf.printf "acked %d missing %d\n" !n !missing;
  exit (if !missing = 0 then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; size; seed; file; keys ] -> gen size (int_of_string seed) file keys
  | [ _; "oracle"; file; queries; answers ] -> oracle file queries answers
  | [ _; "load"; cfg; out ] -> load cfg out
  | [ _; "inproc"; cfg; out ] -> inproc cfg out
  | [ _; "acked"; file; acked_path; work ] -> acked file acked_path (int_of_string work)
  | _ ->
      prerr_endline "usage: pbench (gen|oracle|load|inproc|acked) ARGS... (see run.py)";
      exit 2
