(* Replication torture and unit tests.

   Layers, bottom up:

   - wire: frame encode/decode roundtrips, plus every way a frame can
     be damaged (bad magic, unknown type, CRC mismatch, trailing bytes,
     oversized length, a cut at every byte of a frame).
   - redo: the pager's redo hook — after-image capture, LSN rules
     (monotonic, not advanced by aborts or empty commits, ?lsn
     override persisted), superset semantics for aborted transactions,
     hook exceptions swallowed.
   - feed: the primary's mirror/snapshot consistency and the
     resume-or-snapshot decision (stream id mismatch, replica ahead,
     backlog evicted).
   - apply: replica bootstrap + delta apply, duplicate-skip, delta
     before any snapshot.
   - tcp: a live primary/replica pair over loopback — snapshot
     bootstrap, delta streaming, reconnect-and-resume after the
     primary's feed server restarts.
   - sweep (the crash/fault matrix): a deterministic primary workload
     is captured once; then the replica is crashed at *every* mutating
     syscall of its apply (fault VFS), and the stream is cut at every
     frame boundary and inside frames.  After each failure the replica
     must recover to a *consistent committed image* — some primary
     LSN's exact bytes, never a torn mix — then resume per the real
     plan() decision and end byte-identical to the primary.

   Environment knobs:
     REPL_TORTURE=long   full-stride sweeps, longer workload (CI)
     REPL_SEED=<int>     workload seed (default 0xD1CE) *)

open Pstore
module F = Fault
module V = Vfs
module P = Pager
module S = Store
module W = Prepl.Wire
module L = Prepl.Link
module Feed = Prepl.Feed
module R = Prepl.Replica

let long_mode =
  match Sys.getenv_opt "REPL_TORTURE" with Some "long" -> true | _ -> false

let seed =
  match Sys.getenv_opt "REPL_SEED" with
  | Some s -> int_of_string s
  | None -> 0xD1CE

let page_of c = String.make P.page_size c

(* The content region of a page image: shipped pages carry a pager
   checksum trailer after [P.page_capacity], so content assertions
   compare up to there. *)
let body s = String.sub s 0 P.page_capacity
let body_of c = String.make P.page_capacity c

(* Read a whole file through a VFS (short reads retried). *)
let file_bytes (vfs : V.t) path =
  let fd = vfs.V.open_file path in
  let len = fd.V.size () in
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let n = fd.V.pread ~buf ~off:!pos ~len:(len - !pos) ~at:!pos in
    if n <= 0 then Alcotest.failf "%s: read stalled at %d/%d" path !pos len;
    pos := !pos + n
  done;
  fd.V.close ();
  Bytes.to_string buf

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

(* Decode one frame from a replayed byte string. *)
let decode_string s = W.from_link (fst (L.of_string s))

let frames_equal msg a b =
  let show = function
    | W.Hello { stream_id; last_lsn } -> Printf.sprintf "Hello(%d,%d)" stream_id last_lsn
    | W.Snapshot { stream_id; lsn; data } ->
        Printf.sprintf "Snapshot(%d,%d,%d bytes)" stream_id lsn (String.length data)
    | W.Delta { lsn; pages } -> Printf.sprintf "Delta(%d,%d pages)" lsn (List.length pages)
    | W.Ack { lsn } -> Printf.sprintf "Ack(%d)" lsn
    | W.PageFetch { lsn; pages } ->
        Printf.sprintf "PageFetch(%d,[%s])" lsn
          (String.concat ";" (List.map string_of_int pages))
    | W.PageData { lsn; pages } ->
        Printf.sprintf "PageData(%d,%d pages)" lsn (List.length pages)
  in
  Alcotest.(check string) msg (show a) (show b);
  Alcotest.(check bool) (msg ^ " (payload)") true (a = b)

let test_wire_roundtrip () =
  List.iter
    (fun f -> frames_equal "roundtrip" f (decode_string (W.encode f)))
    [
      W.Hello { stream_id = 12345; last_lsn = 678 };
      W.Hello { stream_id = 0; last_lsn = 0 };
      W.Snapshot { stream_id = 9; lsn = 3; data = String.concat "" [ page_of 'a'; page_of 'b' ] };
      W.Snapshot { stream_id = 1; lsn = 1; data = "" };
      W.Delta { lsn = 7; pages = [ (0, page_of 'h'); (5, page_of 'x') ] };
      W.Delta { lsn = 8; pages = [] };
      W.Ack { lsn = max_int };
      W.PageFetch { lsn = 42; pages = [ 1; 5; 9 ] };
      W.PageFetch { lsn = 0; pages = [] };
      W.PageData { lsn = 42; pages = [ (1, page_of 'r'); (5, page_of 's') ] };
      W.PageData { lsn = 42; pages = [] };
    ]

let manual_frame ty payload =
  let e = Codec.Enc.create () in
  Codec.Enc.u32 e 0x5044524C;
  Codec.Enc.u8 e ty;
  Codec.Enc.u32 e (String.length payload);
  Codec.Enc.raw e payload;
  Codec.Enc.u32 e (Int32.to_int (Codec.Crc32.digest payload) land 0xffffffff);
  Codec.Enc.to_string e

let expect_wire_error msg s =
  match decode_string s with
  | _ -> Alcotest.failf "%s: damaged frame decoded" msg
  | exception W.Wire_error _ -> ()

let test_wire_damage () =
  let good = W.encode (W.Delta { lsn = 4; pages = [ (1, page_of 'q') ] }) in
  let flip i s =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  expect_wire_error "bad magic" (flip 0 good);
  expect_wire_error "a query-protocol (PDBQ) frame on the replication link"
    (Pserver.Binary_proto.encode (Pserver.Binary_proto.Ping { id = 1 }));
  expect_wire_error "unknown type" (flip 4 good);
  expect_wire_error "payload corrupt (CRC)" (flip 12 good);
  expect_wire_error "CRC field corrupt" (flip (String.length good - 1) good);
  (* a structurally valid frame with junk after its payload *)
  let e = Codec.Enc.create () in
  Codec.Enc.int e 5;
  expect_wire_error "trailing payload bytes" (manual_frame 4 (Codec.Enc.to_string e ^ "x"));
  (* an absurd length field is rejected before any allocation *)
  let huge = Bytes.of_string (String.sub good 0 W.header_size) in
  Bytes.set_int32_le huge 5 (Int32.of_int ((1 lsl 30) + 1));
  expect_wire_error "oversized payload length" (Bytes.to_string huge ^ "rest")

let test_wire_cut_everywhere () =
  let good = W.encode (W.Ack { lsn = 7 }) in
  for cut = 0 to String.length good - 1 do
    match W.from_link (fst (L.of_string ~cut good)) with
    | _ -> Alcotest.failf "cut@%d: truncated frame decoded" cut
    | exception L.Link_down _ -> ()
  done;
  frames_equal "uncut frame decodes" (W.Ack { lsn = 7 }) (decode_string good)

let test_wire_page_size_guard () =
  match W.encode (W.Delta { lsn = 1; pages = [ (0, "short") ] }) with
  | _ -> Alcotest.fail "Delta with a non-page payload encoded"
  | exception W.Wire_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Pager redo hook                                                     *)
(* ------------------------------------------------------------------ *)

let with_pager f =
  let fs = F.create ~seed () in
  F.set_short_transfers fs false;
  let vfs = F.vfs fs in
  let p = P.open_file ~vfs "h.db" in
  f vfs p

let fill p no c = P.with_write p no (fun b -> Bytes.fill b 0 P.page_size c)

let test_redo_capture () =
  with_pager (fun _vfs p ->
      let records = ref [] in
      P.set_redo_hook p (fun r -> records := r :: !records);
      let a = P.allocate p and b = P.allocate p in
      P.begin_tx p;
      fill p a 'a';
      fill p b 'b';
      P.commit p;
      match !records with
      | [ r ] ->
          Alcotest.(check int) "first commit is lsn 1" 1 r.P.lsn;
          Alcotest.(check int) "lsn visible on the pager" 1 (P.lsn p);
          Alcotest.(check bool) "header page shipped" true (List.mem_assoc 0 r.P.pages);
          Alcotest.(check string) "page a after-image" (body_of 'a') (body (List.assoc a r.P.pages));
          Alcotest.(check string) "page b after-image" (body_of 'b') (body (List.assoc b r.P.pages));
          Alcotest.(check (list int)) "pages sorted by number"
            (List.sort compare (List.map fst r.P.pages))
            (List.map fst r.P.pages);
          (* second commit: monotonic lsn, only the touched pages *)
          P.begin_tx p;
          fill p b 'B';
          P.commit p;
          (match !records with
          | [ r2; _ ] ->
              Alcotest.(check int) "lsn monotonic" 2 r2.P.lsn;
              Alcotest.(check bool) "untouched page not recaptured" false
                (List.mem_assoc a r2.P.pages);
              Alcotest.(check string) "new after-image" (body_of 'B') (body (List.assoc b r2.P.pages))
          | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs))
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs))

let test_redo_abort_and_empty () =
  with_pager (fun _vfs p ->
      let records = ref [] in
      P.set_redo_hook p (fun r -> records := r :: !records);
      let a = P.allocate p and b = P.allocate p in
      P.begin_tx p;
      fill p a 'a';
      P.commit p;
      let lsn0 = P.lsn p in
      (* an empty commit neither advances the lsn nor fires the hook *)
      P.begin_tx p;
      P.commit p;
      Alcotest.(check int) "empty commit leaves lsn" lsn0 (P.lsn p);
      Alcotest.(check int) "empty commit fires no record" 1 (List.length !records);
      (* an aborted transaction fires no record and keeps the lsn *)
      P.begin_tx p;
      fill p a 'x';
      P.abort p;
      Alcotest.(check int) "abort leaves lsn" lsn0 (P.lsn p);
      Alcotest.(check int) "abort fires no record" 1 (List.length !records);
      (* superset semantics: the aborted tx's page stays in the capture
         set, so the NEXT commit — even one that writes nothing new —
         ships it with its rolled-back content and a replica that saw
         any leaked write converges back to the committed image *)
      P.begin_tx p;
      fill p b 'y';
      P.commit p;
      match !records with
      | r :: _ ->
          Alcotest.(check int) "lsn resumes" (lsn0 + 1) r.P.lsn;
          Alcotest.(check string) "aborted page re-shipped, rolled back"
            (body_of 'a') (body (List.assoc a r.P.pages));
          Alcotest.(check string) "committed page shipped" (body_of 'y')
            (body (List.assoc b r.P.pages))
      | [] -> Alcotest.fail "commit after abort fired no record")

let test_redo_lsn_override_persisted () =
  with_pager (fun vfs p ->
      let a = P.allocate p in
      P.begin_tx p;
      fill p a 'z';
      P.commit ~lsn:42 p;
      Alcotest.(check int) "override applied" 42 (P.lsn p);
      P.close p;
      let p2 = P.open_file ~vfs "h.db" in
      Alcotest.(check int) "override survives reopen" 42 (P.lsn p2);
      P.close p2)

let test_redo_hook_exception_swallowed () =
  with_pager (fun _vfs p ->
      P.set_redo_hook p (fun _ -> failwith "subscriber bug");
      let a = P.allocate p in
      P.begin_tx p;
      fill p a 'k';
      P.commit p (* must not raise *);
      Alcotest.(check int) "commit completed and advanced" 1 (P.lsn p);
      P.clear_redo_hook p;
      P.begin_tx p;
      fill p a 'm';
      P.commit p;
      Alcotest.(check int) "pager still fully usable" 2 (P.lsn p))

(* ------------------------------------------------------------------ *)
(* Workload + fixture shared by feed/apply/sweep tests                 *)
(* ------------------------------------------------------------------ *)

let rand_data rng =
  let n =
    match Random.State.int rng 10 with
    | 0 -> 5000 + Random.State.int rng 4000 (* forces the blob path *)
    | 1 -> 0
    | _ -> Random.State.int rng 300
  in
  let c0 = Random.State.int rng 26 in
  String.init n (fun i -> Char.chr (97 + ((c0 + i) mod 26)))

(* One randomized transaction; true = committed. *)
let run_tx s rng =
  S.begin_tx s;
  let nops = 1 + Random.State.int rng 4 in
  for _ = 1 to nops do
    let oid = 1 + Random.State.int rng 12 in
    if Random.State.int rng 4 = 0 then ignore (S.delete s ~oid)
    else S.put s ~oid (rand_data rng)
  done;
  if Random.State.int rng 5 = 0 then begin
    S.abort s;
    false
  end
  else begin
    S.commit s;
    true
  end

type fixture = {
  stream_id : int;
  snap_lsn : int;
  snap_data : string;
  deltas : (int * (int * string) list) list; (* every captured record, in order *)
  images : (int, string) Hashtbl.t; (* lsn -> committed primary file bytes *)
  final_lsn : int;
}

(* Run a randomized primary workload with a live feed; hand [f] the
   captured stream plus the still-open feed (so sweeps can consult the
   real plan() decision), then tear down. *)
let with_fixture ~txs f =
  let fs = F.create ~seed () in
  let vfs = F.vfs fs in
  let s = S.open_ ~vfs "primary.db" in
  let feed = Feed.create s in
  let images = Hashtbl.create 64 in
  let record_image () = Hashtbl.replace images (S.lsn s) (file_bytes vfs "primary.db") in
  let rng = Random.State.make [| seed; 0x5EED |] in
  (* a committed prefix, then the bootstrap snapshot *)
  for _ = 1 to 3 do
    if run_tx s rng then record_image ()
  done;
  S.with_tx s (fun () -> S.put s ~oid:1 "snapshot-floor");
  record_image ();
  let snap_lsn, snap_data = Feed.snapshot feed in
  Alcotest.(check string) "snapshot equals the primary file"
    (Hashtbl.find images snap_lsn) snap_data;
  (* the randomized tail, closed by a checkpoint commit so every page
     the primary ever flushed (aborted-tx leaks included) gets shipped *)
  for _ = 1 to txs do
    if run_tx s rng then record_image ()
  done;
  S.with_tx s (fun () -> S.put s ~oid:2 "checkpoint");
  record_image ();
  let deltas =
    List.map (fun r -> (r.Feed.r_lsn, r.Feed.r_pages)) (Feed.deltas_after feed ~after:0)
  in
  Alcotest.(check bool) "workload produced deltas" true (List.length deltas > 3);
  let fx =
    {
      stream_id = Feed.stream_id feed;
      snap_lsn;
      snap_data;
      deltas;
      images;
      final_lsn = S.lsn s;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Feed.detach feed;
      S.close s)
    (fun () -> f fx feed)

(* The on-wire stream for a replica: optionally a bootstrap snapshot,
   then every delta past [after].  Returns the bytes and the frame
   start offsets (for boundary cuts). *)
let encoded_stream fx ~with_snapshot ~after =
  let frames =
    (if with_snapshot then
       [ W.Snapshot { stream_id = fx.stream_id; lsn = fx.snap_lsn; data = fx.snap_data } ]
     else [])
    @ List.filter_map
        (fun (lsn, pages) -> if lsn > after then Some (W.Delta { lsn; pages }) else None)
        fx.deltas
  in
  let bufs = List.map W.encode frames in
  let starts =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) b -> (off + String.length b, off :: acc))
            (0, []) bufs))
  in
  (String.concat "" bufs, starts)

(* Feed a replayed stream into an applier until the link dies or the
   stream ends (both surface as Link_down from the framing layer). *)
let apply_stream ap link =
  try
    while true do
      match W.from_link link with
      | W.Snapshot { stream_id; lsn; data } -> R.Apply.install_snapshot ap ~stream_id ~lsn ~data
      | W.Delta { lsn; pages } -> ignore (R.Apply.apply_delta ap ~lsn ~pages)
      | f -> frames_equal "stream frame" (W.Ack { lsn = -1 }) f
    done
  with L.Link_down _ -> ()

(* After a failure the replica must sit at some committed primary
   image: its header LSN names a real commit and the file's bytes match
   that commit's image exactly (a longer file is allowed — pages
   allocated by a rolled-back apply linger, exactly as they do on the
   primary after its own aborts — but the image prefix must match). *)
let check_consistent fx (vfs : V.t) lsn ctx =
  if lsn <> 0 then begin
    match Hashtbl.find_opt fx.images lsn with
    | None -> Alcotest.failf "%s: recovered lsn %d is not a committed primary lsn" ctx lsn
    | Some img ->
        let rb = file_bytes vfs "replica.db" in
        if String.length rb < String.length img then
          Alcotest.failf "%s: replica file at lsn %d is shorter than the image" ctx lsn;
        if String.sub rb 0 (String.length img) <> img then
          Alcotest.failf "%s: replica bytes diverge from the committed image at lsn %d" ctx
            lsn
  end

(* Resume exactly as the protocol would: consult the primary's plan()
   for this replica's (stream_id, lsn), then apply either the delta
   tail or a fresh bootstrap.  Ends byte-identical or fails. *)
let resume_and_verify fx feed (vfs : V.t) ctx =
  let ap = R.Apply.create ~vfs "replica.db" in
  let lsn = R.Apply.last_lsn ap in
  check_consistent fx vfs lsn ctx;
  let stream =
    match Feed.plan feed ~stream_id:(R.Apply.stream_id ap) ~last_lsn:lsn with
    | `Resume -> fst (encoded_stream fx ~with_snapshot:false ~after:lsn)
    | `Snapshot -> fst (encoded_stream fx ~with_snapshot:true ~after:0)
  in
  apply_stream ap (fst (L.of_string stream));
  Alcotest.(check int) (ctx ^ ": caught up to the primary") fx.final_lsn
    (R.Apply.last_lsn ap);
  R.Apply.close ap;
  let rb = file_bytes vfs "replica.db" in
  let img = Hashtbl.find fx.images fx.final_lsn in
  if rb <> img then
    Alcotest.failf "%s: resumed replica is not byte-identical (%d vs %d bytes)" ctx
      (String.length rb) (String.length img)

(* ------------------------------------------------------------------ *)
(* Feed decisions                                                      *)
(* ------------------------------------------------------------------ *)

let test_feed_plan () =
  with_fixture ~txs:4 (fun fx feed ->
      let sid = fx.stream_id in
      let at = Feed.lsn feed in
      let is_resume p = p = `Resume in
      Alcotest.(check bool) "caught-up follower resumes" true
        (is_resume (Feed.plan feed ~stream_id:sid ~last_lsn:at));
      Alcotest.(check bool) "covered follower resumes" true
        (is_resume (Feed.plan feed ~stream_id:sid ~last_lsn:fx.snap_lsn));
      Alcotest.(check bool) "foreign stream re-bootstraps" false
        (is_resume (Feed.plan feed ~stream_id:(sid + 1) ~last_lsn:at));
      Alcotest.(check bool) "replica ahead of primary re-bootstraps" false
        (is_resume (Feed.plan feed ~stream_id:sid ~last_lsn:(at + 5)));
      Alcotest.(check bool) "deltas_after filters strictly" true
        (List.for_all (fun r -> r.Feed.r_lsn > fx.snap_lsn)
           (Feed.deltas_after feed ~after:fx.snap_lsn)))

let test_feed_backlog_eviction () =
  let fs = F.create ~seed:(seed + 1) () in
  let vfs = F.vfs fs in
  let s = S.open_ ~vfs "evict.db" in
  (* a 1-byte cap keeps only the newest record: older followers must
     fall back to a snapshot *)
  let feed = Feed.create ~backlog_cap_bytes:1 s in
  for i = 1 to 4 do
    S.with_tx s (fun () -> S.put s ~oid:i (String.make 500 'e'))
  done;
  let sid = Feed.stream_id feed in
  Alcotest.(check bool) "evicted follower re-bootstraps" true
    (Feed.plan feed ~stream_id:sid ~last_lsn:(Feed.lsn feed - 3) = `Snapshot);
  Alcotest.(check bool) "covered follower still resumes" true
    (Feed.plan feed ~stream_id:sid ~last_lsn:(Feed.lsn feed) = `Resume);
  Feed.detach feed;
  S.close s

(* The sender's per-batch decision: a connection the backlog was evicted
   past must get a snapshot, never the surviving (gappy) delta tail —
   the silent-divergence hole the contiguity check closes. *)
let test_feed_next_batch_eviction () =
  let fs = F.create ~seed:(seed + 4) () in
  let vfs = F.vfs fs in
  let s = S.open_ ~vfs "batch.db" in
  let feed = Feed.create ~backlog_cap_bytes:1 s in
  for i = 1 to 4 do
    S.with_tx s (fun () -> S.put s ~oid:i (String.make 500 'b'))
  done;
  let at = Feed.lsn feed in
  (match Feed.next_batch feed ~after:at with
  | `Deltas [] -> ()
  | `Deltas _ -> Alcotest.fail "caught-up connection got deltas"
  | `Snapshot _ -> Alcotest.fail "caught-up connection got a snapshot");
  (match Feed.next_batch feed ~after:(at - 1) with
  | `Deltas [ r ] -> Alcotest.(check int) "contiguous tail resumes" at r.Feed.r_lsn
  | `Deltas rs -> Alcotest.failf "expected 1 delta, got %d" (List.length rs)
  | `Snapshot _ -> Alcotest.fail "covered connection forced to snapshot");
  (match Feed.next_batch feed ~after:(at - 2) with
  | `Snapshot (lsn, data) ->
      Alcotest.(check int) "snapshot is current" at lsn;
      Alcotest.(check string) "snapshot is the primary image"
        (file_bytes vfs "batch.db") data
  | `Deltas _ -> Alcotest.fail "evicted connection got the gappy delta tail");
  Feed.detach feed;
  S.close s

(* ------------------------------------------------------------------ *)
(* Apply: bootstrap, catch-up, duplicates                              *)
(* ------------------------------------------------------------------ *)

let test_apply_end_to_end () =
  with_fixture ~txs:6 (fun fx _feed ->
      let rfs = F.create ~seed:(seed + 2) () in
      let rvfs = F.vfs rfs in
      let ap = R.Apply.create ~vfs:rvfs "replica.db" in
      let stream, _ = encoded_stream fx ~with_snapshot:true ~after:0 in
      apply_stream ap (fst (L.of_string stream));
      Alcotest.(check int) "replica at the primary's lsn" fx.final_lsn
        (R.Apply.last_lsn ap);
      Alcotest.(check int) "bootstrapped exactly once" 1 ap.R.Apply.snapshots_loaded;
      Alcotest.(check int) "stream id adopted" fx.stream_id (R.Apply.stream_id ap);
      let before = file_bytes rvfs "replica.db" in
      Alcotest.(check bool) "byte-identical to the primary" true
        (before = Hashtbl.find fx.images fx.final_lsn);
      (* replaying the whole delta stream is a no-op: every record is a
         duplicate and must be skipped, not reapplied *)
      let applied0 = ap.R.Apply.applied_records in
      apply_stream ap (fst (L.of_string (fst (encoded_stream fx ~with_snapshot:false ~after:0))));
      Alcotest.(check int) "duplicates skipped" applied0 ap.R.Apply.applied_records;
      Alcotest.(check bool) "file untouched by duplicates" true
        (file_bytes rvfs "replica.db" = before);
      R.Apply.close ap)

let test_apply_delta_before_snapshot () =
  let rfs = F.create ~seed:(seed + 3) () in
  let ap = R.Apply.create ~vfs:(F.vfs rfs) "replica.db" in
  match R.Apply.apply_delta ap ~lsn:1 ~pages:[ (0, page_of 'x') ] with
  | _ -> Alcotest.fail "delta applied with no database file"
  | exception R.Replica_error _ -> R.Apply.close ap

(* LSNs are dense; a delta that skips ahead means records were lost
   upstream and must be rejected (forcing re-handshake), not applied. *)
let test_apply_gap_rejected () =
  with_fixture ~txs:4 (fun fx _feed ->
      let rfs = F.create ~seed:(seed + 5) () in
      let rvfs = F.vfs rfs in
      let ap = R.Apply.create ~vfs:rvfs "replica.db" in
      R.Apply.install_snapshot ap ~stream_id:fx.stream_id ~lsn:fx.snap_lsn
        ~data:fx.snap_data;
      (match
         R.Apply.apply_delta ap ~lsn:(fx.snap_lsn + 2) ~pages:[ (1, page_of 'g') ]
       with
      | _ -> Alcotest.fail "gappy delta applied"
      | exception R.Replica_error _ -> ());
      Alcotest.(check int) "file lsn unchanged by the rejected delta" fx.snap_lsn
        (R.Apply.last_lsn ap);
      Alcotest.(check string) "file bytes unchanged by the rejected delta"
        (Hashtbl.find fx.images fx.snap_lsn)
        (file_bytes rvfs "replica.db");
      (* the contiguous successor still applies *)
      (match List.assoc_opt (fx.snap_lsn + 1) fx.deltas with
      | Some pages ->
          Alcotest.(check int) "contiguous delta applies" (fx.snap_lsn + 1)
            (R.Apply.apply_delta ap ~lsn:(fx.snap_lsn + 1) ~pages)
      | None -> ());
      R.Apply.close ap)

(* Unresolvable hosts must surface as Link_down (with the socket
   closed), not as the bare Failure that inet_addr_of_string raises. *)
let test_connect_bad_host () =
  match L.connect ~host:"no-such-host.invalid" ~port:1 with
  | _ -> Alcotest.fail "connect to a nonexistent host succeeded"
  | exception L.Link_down _ -> ()

(* ------------------------------------------------------------------ *)
(* Live TCP pair: bootstrap, stream, reconnect                         *)
(* ------------------------------------------------------------------ *)

let tmp_base =
  Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "prom_repl_%d" (Unix.getpid ()))

let cleanup_tcp () =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [
      tmp_base ^ "_p.db";
      tmp_base ^ "_p.db.journal";
      tmp_base ^ "_r.db";
      tmp_base ^ "_r.db.journal";
      tmp_base ^ "_r.db.replid";
      tmp_base ^ "_r.db.replid.tmp";
      tmp_base ^ "_r.db.snap";
    ]

let wait ?(timeout = 20.) msg cond =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if not (cond ()) then Alcotest.failf "timeout waiting for %s" msg

let read_disk path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_tcp_pair () =
  cleanup_tcp ();
  let ppath = tmp_base ^ "_p.db" and rpath = tmp_base ^ "_r.db" in
  let s = S.open_ ppath in
  let feed = Feed.create s in
  S.with_tx s (fun () -> S.put s ~oid:1 "before the replica exists");
  let srv = Feed.serve feed ~port:0 in
  let sess = R.start ~host:"127.0.0.1" ~port:srv.Feed.port rpath in
  Fun.protect
    ~finally:(fun () ->
      R.stop sess;
      (try Feed.stop_server srv with _ -> ());
      Feed.detach feed;
      S.close s;
      cleanup_tcp ())
    (fun () ->
      let caught_up () = R.Apply.last_lsn sess.R.apply = S.lsn s in
      wait "snapshot bootstrap" caught_up;
      Alcotest.(check int) "bootstrap used one snapshot" 1
        sess.R.apply.R.Apply.snapshots_loaded;
      (* live writes now flow as deltas *)
      for i = 2 to 6 do
        S.with_tx s (fun () -> S.put s ~oid:i (String.make (i * 700) 'd'))
      done;
      wait "delta catch-up" caught_up;
      Alcotest.(check bool) "deltas applied, no re-bootstrap" true
        (sess.R.apply.R.Apply.applied_records > 0
        && sess.R.apply.R.Apply.snapshots_loaded = 1);
      Alcotest.(check bool) "files byte-identical over TCP" true
        (read_disk ppath = read_disk rpath);
      (* the admin documents name their roles *)
      Alcotest.(check bool) "primary status" true
        (contains (Feed.status_json feed) "\"role\": \"primary\""
        || contains (Feed.status_json feed) "\"role\":\"primary\"");
      Alcotest.(check bool) "replica status" true
        (contains (R.status_json sess) "replica");
      Alcotest.(check bool) "repl metrics exposed" true
        (contains (Pobs.Metrics.expose ()) "pdb_repl_shipped_records_total");
      (* kill the primary's feed server; the replica must reconnect to
         the reborn server on the same port and RESUME — no snapshot *)
      Feed.stop_server srv;
      wait "replica notices the dead link" (fun () -> not sess.R.connected);
      S.with_tx s (fun () -> S.put s ~oid:7 "written while the link was down");
      let srv2 = Feed.serve feed ~port:srv.Feed.port in
      Fun.protect
        ~finally:(fun () -> try Feed.stop_server srv2 with _ -> ())
        (fun () ->
          wait "reconnect and resume" caught_up;
          Alcotest.(check bool) "reconnect counted" true (sess.R.reconnects > 0);
          Alcotest.(check int) "resume shipped deltas, not a snapshot" 1
            sess.R.apply.R.Apply.snapshots_loaded;
          Alcotest.(check bool) "byte-identical after reconnect" true
            (read_disk ppath = read_disk rpath)))

(* ------------------------------------------------------------------ *)
(* The fault sweeps (satellite: crash/fault matrix)                    *)
(* ------------------------------------------------------------------ *)

(* Crash the replica at every mutating syscall of its apply.  After
   each power cut, reopen (journal recovery), check the image is a
   committed one, then resume per plan() and demand byte-identity. *)
let test_crash_sweep () =
  let txs = if long_mode then 30 else 8 in
  with_fixture ~txs (fun fx feed ->
      let stream, _ = encoded_stream fx ~with_snapshot:true ~after:0 in
      let run vfs = apply_stream (R.Apply.create ~vfs "replica.db") (fst (L.of_string stream)) in
      (* calibration: count the syscalls a clean full apply performs *)
      let total =
        let rfs = F.create ~seed () in
        run (F.vfs rfs);
        F.syscalls rfs
      in
      Alcotest.(check bool) "apply does real I/O" true (total > 50);
      let step = if long_mode then 1 else max 1 (total / 60) in
      let fired = ref 0 in
      let i = ref 1 in
      while !i <= total do
        let rfs = F.create ~seed:(seed + !i) () in
        let rvfs = F.vfs rfs in
        F.set_crash_at rfs !i;
        (match run rvfs with
        | () -> () (* this run needed fewer syscalls; nothing fired *)
        | exception V.Crash ->
            incr fired;
            F.revive rfs;
            resume_and_verify fx feed rvfs (Printf.sprintf "crash@%d/%d" !i total));
        i := !i + step
      done;
      Alcotest.(check bool) "crash points fired" true (!fired > 0))

(* Cut the byte stream at every frame boundary and at offsets inside
   every frame: the replica must land exactly on the last fully applied
   commit, then resume to byte-identity. *)
let test_cut_sweep () =
  let txs = if long_mode then 30 else 8 in
  with_fixture ~txs (fun fx feed ->
      let stream, starts = encoded_stream fx ~with_snapshot:true ~after:0 in
      let len = String.length stream in
      let cuts =
        List.sort_uniq compare
          (List.concat_map
             (fun b ->
               [ b; b + 1; b + W.header_size; b + W.header_size + 7 ]
               |> List.filter (fun c -> c >= 0 && c < len))
             (starts @ [ len ]))
      in
      Alcotest.(check bool) "cut points cover the stream" true (List.length cuts > 8);
      List.iter
        (fun cut ->
          let rfs = F.create ~seed:(seed + cut) () in
          let rvfs = F.vfs rfs in
          let ap = R.Apply.create ~vfs:rvfs "replica.db" in
          apply_stream ap (fst (L.of_string ~cut stream));
          R.Apply.close ap;
          resume_and_verify fx feed rvfs (Printf.sprintf "cut@%d/%d" cut len))
        cuts)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "repl"
    [
      ( "wire",
        [
          Alcotest.test_case "frame roundtrips" `Quick test_wire_roundtrip;
          Alcotest.test_case "damaged frames rejected" `Quick test_wire_damage;
          Alcotest.test_case "cut at every byte of a frame" `Quick test_wire_cut_everywhere;
          Alcotest.test_case "delta page-size guard" `Quick test_wire_page_size_guard;
        ] );
      ( "redo",
        [
          Alcotest.test_case "after-image capture" `Quick test_redo_capture;
          Alcotest.test_case "aborts and empty commits" `Quick test_redo_abort_and_empty;
          Alcotest.test_case "lsn override persisted" `Quick test_redo_lsn_override_persisted;
          Alcotest.test_case "hook exceptions swallowed" `Quick
            test_redo_hook_exception_swallowed;
        ] );
      ( "feed",
        [
          Alcotest.test_case "resume-or-snapshot plan" `Quick test_feed_plan;
          Alcotest.test_case "backlog eviction forces snapshot" `Quick
            test_feed_backlog_eviction;
          Alcotest.test_case "sender batch falls back on eviction" `Quick
            test_feed_next_batch_eviction;
        ] );
      ( "apply",
        [
          Alcotest.test_case "bootstrap + catch-up + duplicates" `Quick test_apply_end_to_end;
          Alcotest.test_case "delta before snapshot" `Quick test_apply_delta_before_snapshot;
          Alcotest.test_case "lsn gap rejected" `Quick test_apply_gap_rejected;
          Alcotest.test_case "connect to bad host is Link_down" `Quick
            test_connect_bad_host;
        ] );
      ( "tcp",
        [ Alcotest.test_case "live pair: bootstrap, stream, reconnect" `Slow test_tcp_pair ] );
      ( "sweep",
        [
          Alcotest.test_case "replica crash at every syscall" `Slow test_crash_sweep;
          Alcotest.test_case "stream cut at every frame boundary" `Slow test_cut_sweep;
        ] );
    ]
