(* MVCC and group-commit test suite (PR 7).

   Covers the multicore read path end to end:

   - the frozen-LSN property: N domains reading one snapshot
     concurrently with a committing writer see results bit-identical to
     a single-threaded read taken when the snapshot was frozen;
   - database-level snapshot views: POOL queries over a shared view
     from several domains while the parent mutates;
   - group commit: concurrent committers are batched into few fsync
     cycles, every caller's data is durable once its submit returns,
     and a simulated power cut mid-batch recovers to a consistent
     prefix;
   - version-chain reclamation: a long-lived snapshot pins page
     versions, releasing it lets the watermark free them (observed via
     [Store.stats]);
   - domain-safety of the obs substrate (atomic counters, monotonic
     clock) and of per-database layer state under a 4-domain hammer. *)

open Pstore
module F = Fault
module S = Store
module D = Pmodel.Database

let value_cls = "Rec"

(* --- store-level fixtures ------------------------------------------- *)

let open_mem fs path = S.open_ ~vfs:(F.vfs fs) path

let put_records st lo hi tag =
  S.begin_tx st;
  for i = lo to hi do
    let oid = i + 10 in
    S.put st ~oid (Printf.sprintf "%s-%06d-%s" tag i (String.make (i mod 97) 'x'))
  done;
  S.commit st

let dump_snapshot (s : S.Snapshot.s) : (int * string) list =
  let acc = ref [] in
  S.Snapshot.iter s (fun oid data -> acc := (oid, data) :: !acc);
  List.rev !acc

(* --- 1. frozen-LSN bit-identical reads ------------------------------- *)

let test_frozen_lsn () =
  let fs = F.create () in
  let st = open_mem fs "mvcc1.db" in
  put_records st 0 300 "base";
  let snap = S.snapshot st in
  let frozen_lsn = S.Snapshot.lsn snap in
  (* the single-threaded reference at the frozen LSN *)
  let reference = dump_snapshot snap in
  (* 4 domains each hammer an independent clone of the snapshot while
     the writer churns the same oids through many commits *)
  let n_domains = 4 in
  let clones = List.init n_domains (fun _ -> S.Snapshot.clone snap) in
  let readers =
    List.map
      (fun clone ->
        Domain.spawn (fun () ->
            let rounds = ref 0 in
            let ok = ref true in
            while !rounds < 20 do
              if dump_snapshot clone <> reference then ok := false;
              incr rounds
            done;
            S.Snapshot.release clone;
            !ok))
      clones
  in
  (* concurrent writer: overwrite, delete, insert *)
  for round = 1 to 30 do
    S.begin_tx st;
    for i = 0 to 300 do
      if (i + round) mod 3 = 0 then
        S.put st ~oid:(i + 10) (Printf.sprintf "new-%d-%d" round i)
      else if (i + round) mod 7 = 0 then ignore (S.delete st ~oid:(i + 10))
    done;
    S.put st ~oid:(5000 + round) (String.make 512 'y');
    S.commit st
  done;
  List.iter
    (fun d -> Alcotest.(check bool) "reader saw frozen state" true (Domain.join d))
    readers;
  (* the original handle still reads the frozen state after all writes *)
  Alcotest.(check bool) "original handle frozen" true (dump_snapshot snap = reference);
  Alcotest.(check int) "lsn unchanged" frozen_lsn (S.Snapshot.lsn snap);
  S.Snapshot.release snap;
  S.close st

(* --- 2. database-level snapshot views -------------------------------- *)

let mk_db fs path =
  let db = D.open_ ~vfs:(F.vfs fs) path in
  ignore (D.define_class db value_cls [ Pmodel.Meta.attr "n" Pmodel.Value.TInt ]);
  D.create_index db value_cls "n";
  D.with_tx db (fun () ->
      for i = 0 to 199 do
        ignore (D.create db value_cls [ ("n", Pmodel.Value.VInt i) ])
      done);
  db

let count_below db k =
  match
    Pool_lang.Pool.scalar db
      (Printf.sprintf "count(select r from %s r where r.n < %d)" value_cls k)
  with
  | Pmodel.Value.VInt n -> n
  | v -> Alcotest.failf "unexpected scalar %s" (Pmodel.Value.to_string v)

let test_database_view () =
  let fs = F.create () in
  let db = mk_db fs "mvcc2.db" in
  let view = D.snapshot db in
  let expected = count_below db 100 in
  Alcotest.(check int) "view matches parent at freeze" expected (count_below view 100);
  (* shared view across 4 domains, while the parent keeps writing *)
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 25 do
              if count_below view 100 <> expected then ok := false
            done;
            !ok))
  in
  D.with_tx db (fun () ->
      for i = 200 to 299 do
        ignore (D.create db value_cls [ ("n", Pmodel.Value.VInt (i mod 50)) ])
      done);
  List.iter
    (fun d -> Alcotest.(check bool) "shared view stable" true (Domain.join d))
    readers;
  (* the parent sees its own writes; the view still does not *)
  Alcotest.(check bool) "parent moved on" true (count_below db 100 > expected);
  Alcotest.(check int) "view frozen" expected (count_below view 100);
  (* clones pin the same LSN *)
  let clone = D.snapshot_clone view in
  Alcotest.(check int) "clone same lsn" (D.view_lsn view) (D.view_lsn clone);
  Alcotest.(check int) "clone same answer" expected (count_below clone 100);
  D.close clone;
  (* mutators are rejected on a view *)
  (match D.create view value_cls [ ("n", Pmodel.Value.VInt 1) ] with
  | _ -> Alcotest.fail "create on view should fail"
  | exception D.Model_error _ -> ());
  (match D.begin_tx view with
  | _ -> Alcotest.fail "begin_tx on view should fail"
  | exception D.Model_error _ -> ());
  D.close view;
  D.close db

(* --- 3. group commit: batching + durability --------------------------- *)

let test_group_batching () =
  let fs = F.create () in
  let st = open_mem fs "mvcc3.db" in
  put_records st 0 10 "seed";
  let g = S.Group.start ~max_batch:32 st in
  (* prime the writer with a slow job so the K concurrent submitters
     all land in the queue and retire as one (or at most two) hard
     cycles *)
  let slow =
    Domain.spawn (fun () ->
        S.Group.submit g (fun st ->
            Unix.sleepf 0.08;
            S.put st ~oid:9000 "slow"))
  in
  Unix.sleepf 0.02 (* let the slow job enter its batch *);
  let fsyncs_before = (F.counters fs).F.fsyncs in
  let k = 8 in
  let workers =
    List.init k (fun w ->
        Domain.spawn (fun () ->
            S.Group.submit g (fun st ->
                S.put st ~oid:(9100 + w) (Printf.sprintf "worker-%d" w))))
  in
  let lsns = List.map Domain.join workers in
  let slow_lsn = Domain.join slow in
  let fsyncs_after = (F.counters fs).F.fsyncs in
  let stats = S.Group.group_stats g in
  S.Group.stop g;
  (* every committer got a real LSN *)
  List.iter (fun l -> Alcotest.(check bool) "positive lsn" true (l > 0)) (slow_lsn :: lsns);
  Alcotest.(check int) "all soft commits retired" (k + 1) stats.S.Group.commits;
  Alcotest.(check bool) "batched: fewer cycles than commits" true
    (stats.S.Group.batches >= 1 && stats.S.Group.batches <= k);
  (* fsync cycles across the K concurrent commits: >= 1 and <= K.
     (each hard cycle costs a bounded constant number of fsyncs) *)
  let cycles_cost = fsyncs_after - fsyncs_before in
  Alcotest.(check bool) "fsyncs bounded" true (cycles_cost >= 1 && cycles_cost <= 3 * k);
  (* durable: a fresh open (recovery path) sees every record *)
  S.close st;
  let st2 = open_mem fs "mvcc3.db" in
  ignore (S.check st2);
  Alcotest.(check (option string)) "slow durable" (Some "slow") (S.get st2 ~oid:9000);
  List.iteri
    (fun w _ ->
      Alcotest.(check (option string))
        "worker durable"
        (Some (Printf.sprintf "worker-%d" w))
        (S.get st2 ~oid:(9100 + w)))
    lsns;
  S.close st2

let test_group_abort_isolated () =
  (* a body that raises is rolled back without disturbing its batch *)
  let fs = F.create () in
  let st = open_mem fs "mvcc4.db" in
  let g = S.Group.start st in
  let l1 = S.Group.submit g (fun st -> S.put st ~oid:100 "one") in
  (match S.Group.submit g (fun st -> S.put st ~oid:101 "poison"; failwith "veto") with
  | _ -> Alcotest.fail "failing body must raise at the submitter"
  | exception Failure m -> Alcotest.(check string) "body error surfaced" "veto" m);
  let l2 = S.Group.submit g (fun st -> S.put st ~oid:102 "two") in
  Alcotest.(check bool) "lsns advance" true (l2 > l1);
  let stats = S.Group.group_stats g in
  Alcotest.(check int) "abort counted" 1 stats.S.Group.aborts;
  S.Group.stop g;
  S.close st;
  let st2 = open_mem fs "mvcc4.db" in
  ignore (S.check st2);
  Alcotest.(check (option string)) "first kept" (Some "one") (S.get st2 ~oid:100);
  Alcotest.(check (option string)) "poison rolled back" None (S.get st2 ~oid:101);
  Alcotest.(check (option string)) "third kept" (Some "two") (S.get st2 ~oid:102);
  S.close st2

(* --- 4. crash mid-batch recovers a consistent prefix ------------------ *)

let test_group_crash_prefix () =
  (* Sweep several crash offsets.  For each: arm a power cut, submit a
     wave of group commits, let the writer die, then reopen through
     recovery and check (a) the store is structurally sound, (b) every
     submit that returned Ok is durable, (c) each batch is all-or-
     nothing: the recovered state never holds a strict subset of one
     batch's soft commits interleaved with later ones. *)
  let offsets = [ 5; 17; 41; 97; 193 ] in
  List.iter
    (fun off ->
      let fs = F.create () in
      let st = open_mem fs "mvcc5.db" in
      put_records st 0 20 "seed";
      let g = S.Group.start ~max_batch:64 st in
      F.set_crash_at fs (F.syscalls fs + off);
      let k = 12 in
      let results = Array.make k `Pending in
      let workers =
        List.init k (fun w ->
            Domain.spawn (fun () ->
                match
                  S.Group.submit g (fun st ->
                      S.put st ~oid:(7000 + w) (Printf.sprintf "c-%d" w))
                with
                | _lsn -> results.(w) <- `Ok
                | exception _ -> results.(w) <- `Failed))
      in
      List.iter Domain.join workers;
      (match S.Group.stop g with () -> () | exception Vfs.Crash -> ());
      F.revive fs;
      (* reopen: recovery must produce a consistent store *)
      let st2 = open_mem fs "mvcc5.db" in
      ignore (S.check st2);
      Array.iteri
        (fun w r ->
          match r with
          | `Ok ->
              Alcotest.(check (option string))
                (Printf.sprintf "crash@%d: acked commit %d durable" off w)
                (Some (Printf.sprintf "c-%d" w))
                (S.get st2 ~oid:(7000 + w))
          | `Failed | `Pending -> () (* may have made it or not: crash ambiguity *))
        results;
      (* the seed data is always intact *)
      for i = 0 to 20 do
        Alcotest.(check bool)
          (Printf.sprintf "crash@%d: seed %d intact" off i)
          true
          (S.get st2 ~oid:(i + 10) <> None)
      done;
      S.close st2)
    offsets

(* --- 5. version-chain reclamation ------------------------------------- *)

let test_version_reclamation () =
  let fs = F.create () in
  let st = open_mem fs "mvcc6.db" in
  put_records st 0 50 "base";
  let before = (S.stats st).S.pinned_versions in
  Alcotest.(check int) "no pins without snapshots" 0 before;
  let snap = S.snapshot st in
  (* churn the same pages repeatedly: each commit publishes versions
     the live snapshot pins *)
  for round = 1 to 10 do
    S.begin_tx st;
    for i = 0 to 50 do
      S.put st ~oid:(i + 10) (Printf.sprintf "round-%d-%d" round i)
    done;
    S.commit st
  done;
  let pinned = (S.stats st).S.pinned_versions in
  Alcotest.(check bool) "snapshot pins versions" true (pinned > 0);
  Alcotest.(check int) "snapshot handles counted" 1 (S.stats st).S.snapshots;
  (* the snapshot still reads the original bytes through the churn *)
  (match S.Snapshot.get snap ~oid:10 with
  | Some data ->
      Alcotest.(check bool) "snapshot sees pre-churn data" true
        (String.length data >= 4 && String.sub data 0 4 = "base")
  | None -> Alcotest.fail "snapshot lost a record");
  Alcotest.(check bool) "snapshot reads counted" true ((S.stats st).S.snapshot_reads > 0);
  (* release: the next commit's watermark prune frees every chain *)
  S.Snapshot.release snap;
  S.begin_tx st;
  S.put st ~oid:10 "after-release";
  S.commit st;
  Alcotest.(check int) "watermark reclaimed all versions" 0 (S.stats st).S.pinned_versions;
  Alcotest.(check int) "no live snapshots" 0 (S.stats st).S.snapshots;
  S.close st

(* --- 6. obs substrate under domains ----------------------------------- *)

let test_obs_domain_safety () =
  let c = Pobs.Metrics.counter "test_mvcc_hammer_total" ~help:"test" in
  let n_domains = 4 and per = 25_000 in
  let workers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Pobs.Metrics.inc c
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check (float 0.001))
    "no lost counter increments"
    (float_of_int (n_domains * per))
    (Pobs.Metrics.counter_value c);
  (* the monotonic clock never goes backwards, on any domain *)
  let mono_ok () =
    let last = ref 0 in
    let ok = ref true in
    for _ = 1 to 10_000 do
      let t = Pobs.Monotonic.now_ns () in
      if t < !last then ok := false;
      last := t
    done;
    !ok
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn mono_ok) in
  List.iter (fun d -> Alcotest.(check bool) "monotonic per domain" true (Domain.join d)) ds

(* --- 7. layer-state hammer over a shared view -------------------------- *)

let test_ext_hammer () =
  let fs = F.create () in
  let db = mk_db fs "mvcc7.db" in
  (* link some taxonomy-ish structure so CSR managers engage *)
  ignore
    (D.define_rel db "child_of" ~origin:value_cls ~destination:value_cls);
  D.with_tx db (fun () ->
      let oids = D.extent_list db value_cls in
      let arr = Array.of_list oids in
      Array.iteri
        (fun i oid -> if i > 0 then ignore (D.link db "child_of" ~origin:oid ~destination:arr.((i - 1) / 2)))
        arr);
  let view = D.snapshot db in
  let expected = count_below view 100 in
  (* 4 domains race: plan-cache misses, CSR builds, ext get-or-init *)
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 1 to 15 do
              if count_below view ((round mod 3) + 99) < 1 then ok := false;
              if count_below view 100 <> expected then ok := false;
              let m = Pgraph.Csr.handle view in
              let s = Pgraph.Csr.get m ~rel:"child_of" () in
              ignore (Pgraph.Csr.descendants s (List.nth (D.extent_list view value_cls) w))
            done;
            !ok))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "hammer domain clean" true (Domain.join d))
    workers;
  (* all domains installed exactly one manager *)
  let m1 = Pgraph.Csr.handle view and m2 = Pgraph.Csr.handle view in
  Alcotest.(check bool) "one CSR manager" true (m1 == m2);
  D.close view;
  D.close db

(* --- 8. views under a group writer: all or nothing ------------------ *)

let vint i = Pmodel.Value.VInt i

let int_attr db oid attr =
  match D.get_attr db oid attr with Pmodel.Value.VInt n -> n | _ -> min_int

(* Every view taken while a [Writer] commits multi-object bodies — some
   of which raise and roll back — holds each body's objects, links and
   update entirely or not at all, and its index agrees with an extent
   scan. *)
let test_writer_atomicity () =
  let fs = F.create () in
  let db = D.open_ ~vfs:(F.vfs fs) "mvcc8.db" in
  let attr = Pmodel.Meta.attr in
  ignore (D.define_class db "Part" [ attr "body" Pmodel.Value.TInt; attr "k" Pmodel.Value.TInt ]);
  ignore (D.define_rel db "joins" ~origin:"Part" ~destination:"Part");
  D.create_index db "Part" "body";
  let marker = D.with_tx db (fun () -> D.create db "Part" [ ("body", vint (-1)); ("k", vint (-1)) ]) in
  let w = D.Writer.start db in
  let per_body = 3 and n_submitters = 2 and bodies = 40 in
  let vetoed b = b mod 4 = 3 in
  let stop = Atomic.make false in
  let checker =
    Domain.spawn (fun () ->
        let views = ref 0 and bad = ref [] in
        let fail fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
        while not (Atomic.get stop) do
          let v = D.snapshot db in
          incr views;
          let parts = D.extent v "Part" in
          let by_body = Hashtbl.create 64 in
          D.OidSet.iter
            (fun oid ->
              let b = int_attr v oid "body" in
              if b >= 0 then
                Hashtbl.replace by_body b
                  (oid :: Option.value ~default:[] (Hashtbl.find_opt by_body b)))
            parts;
          Hashtbl.iter
            (fun b oids ->
              if List.length oids <> per_body then
                fail "lsn %d: body %d has %d of %d objects" (D.view_lsn v) b (List.length oids)
                  per_body;
              if vetoed b then fail "lsn %d: rolled-back body %d visible" (D.view_lsn v) b;
              let links =
                List.fold_left
                  (fun n oid -> n + List.length (D.outgoing v ~rel_name:"joins" oid))
                  0 oids
              in
              if links <> per_body - 1 then fail "body %d has %d links" b links;
              match D.index_lookup v "Part" "body" (vint b) with
              | Some s when D.OidSet.equal s (D.OidSet.of_list oids) -> ()
              | _ -> fail "body %d: index disagrees with the extent scan" b)
            by_body;
          (* the marker's update belongs to the newest body in the view *)
          let k = int_attr v marker "k" in
          if k >= 0 && not (Hashtbl.mem by_body k) then
            fail "lsn %d: marker names body %d, which the view lacks" (D.view_lsn v) k;
          (match D.index_range v "Part" "body" () with
          | Some s when D.OidSet.equal s parts -> ()
          | _ -> fail "lsn %d: index range differs from the extent" (D.view_lsn v));
          D.close v
        done;
        (!views, !bad))
  in
  let submitters =
    List.init n_submitters (fun s ->
        Domain.spawn (fun () ->
            for i = 0 to bodies - 1 do
              let b = (s * bodies) + i in
              match
                D.Writer.submit w (fun db ->
                    let oids =
                      List.init per_body (fun j ->
                          D.create db "Part" [ ("body", vint b); ("k", vint j) ])
                    in
                    List.iteri
                      (fun j o ->
                        if j > 0 then
                          ignore (D.link db "joins" ~origin:(List.nth oids (j - 1)) ~destination:o))
                      oids;
                    D.update db marker "k" (vint b);
                    if vetoed b then failwith "veto")
              with
              | _ -> ()
              | exception Failure _ -> ()
            done))
  in
  List.iter Domain.join submitters;
  Atomic.set stop true;
  let views, bad = Domain.join checker in
  D.Writer.stop w;
  Alcotest.(check (list string)) "every view all-or-nothing" [] (List.rev bad);
  Alcotest.(check bool) "views were taken" true (views > 0);
  let committed = List.filter (fun b -> not (vetoed b)) (List.init (n_submitters * bodies) Fun.id) in
  Alcotest.(check int) "live handle holds the committed bodies"
    ((List.length committed * per_body) + 1)
    (D.count db "Part");
  Alcotest.(check int) "views pin no page versions" 0
    (S.stats ~count_objects:false (D.store db)).S.pinned_versions;
  D.close db

(* --- 9. copy-on-write: later writes never reach a view ---------------- *)

let test_copy_on_write () =
  let fs = F.create () in
  let db = mk_db fs "mvcc9.db" in
  ignore (D.define_rel db "next" ~origin:value_cls ~destination:value_cls);
  let oids = Array.of_list (D.extent_list db value_cls) in
  let a = oids.(0) and b = oids.(1) and c = oids.(2) and d = oids.(3) in
  let rel = D.with_tx db (fun () -> D.link db "next" ~origin:a ~destination:b) in
  let v = D.snapshot db in
  let lsn = D.view_lsn v in
  let n_a = int_attr db a "n" in
  D.with_tx db (fun () ->
      D.update db a "n" (vint 1000);
      D.retarget db rel ~destination:c ();
      D.delete db d);
  (* the live handle moved on *)
  Alcotest.(check int) "live update" 1000 (int_attr db a "n");
  Alcotest.(check (list int)) "live relink" [ c ]
    (List.map Pmodel.Obj.destination (D.outgoing db ~rel_name:"next" a));
  Alcotest.(check bool) "live delete" true (D.get db d = None);
  (* the view did not *)
  Alcotest.(check int) "view keeps the old value" n_a (int_attr v a "n");
  Alcotest.(check bool) "view index keeps the old key" true
    (match D.index_lookup v value_cls "n" (vint n_a) with
    | Some s -> D.OidSet.mem a s
    | None -> false);
  Alcotest.(check bool) "view index lacks the new key" true
    (match D.index_lookup v value_cls "n" (vint 1000) with
    | Some s -> D.OidSet.is_empty s
    | None -> false);
  Alcotest.(check (list int)) "view keeps the old link" [ b ]
    (List.map Pmodel.Obj.destination (D.outgoing v ~rel_name:"next" a));
  Alcotest.(check int) "view: new destination has no incoming link" 0
    (List.length (D.incoming v ~rel_name:"next" c));
  Alcotest.(check bool) "view keeps the deleted object" true (D.get v d <> None);
  Alcotest.(check int) "view lsn unchanged" lsn (D.view_lsn v);
  D.close v;
  D.close db

(* ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshots",
        [
          Alcotest.test_case "frozen-LSN bit-identical concurrent reads" `Quick
            test_frozen_lsn;
          Alcotest.test_case "database view across domains" `Quick test_database_view;
          Alcotest.test_case "version-chain reclamation" `Quick test_version_reclamation;
          Alcotest.test_case "views under a writer are all-or-nothing" `Quick
            test_writer_atomicity;
          Alcotest.test_case "copy-on-write views" `Quick test_copy_on_write;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "concurrent committers batched + durable" `Quick
            test_group_batching;
          Alcotest.test_case "failing body isolated" `Quick test_group_abort_isolated;
          Alcotest.test_case "crash mid-batch recovers a prefix" `Quick
            test_group_crash_prefix;
        ] );
      ( "domains",
        [
          Alcotest.test_case "obs counters and clock" `Quick test_obs_domain_safety;
          Alcotest.test_case "layer-state hammer on shared view" `Quick test_ext_hammer;
        ] );
    ]
