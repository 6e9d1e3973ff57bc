(** The raw-store baseline for the OO7 benchmark.

    This is the "underlying storage system" Prometheus is compared
    against in the thesis (there: POET; here: our {!Pstore.Store}).
    Objects are plain records with *embedded references* (oid lists in
    attributes) — no relationship instances, no semantic checks, no
    events, no rules, no extents.  A write-through object cache mirrors
    the caching the object layer enjoys, so the comparison isolates the
    cost of the relationship machinery rather than deserialisation. *)

open Pstore
open Pmodel
module S = Oo7_schema

type t = { store : Store.t; cache : (int, Obj.t) Hashtbl.t }

let open_ ?cache_pages path = { store = Store.open_ ?cache_pages path; cache = Hashtbl.create 4096 }
let close t = Store.close t.store

let vint i = Value.VInt i
let vstr s = Value.VString s
let vref o = Value.VRef o

let persist t (o : Obj.t) = Store.put t.store ~oid:o.Obj.oid (Obj.encode o)

let create t class_name attrs : int =
  let oid = Store.fresh_oid t.store in
  let o = Obj.make ~oid ~class_name attrs in
  persist t o;
  Hashtbl.replace t.cache oid o;
  oid

let get t oid : Obj.t =
  match Hashtbl.find_opt t.cache oid with
  | Some o -> o
  | None -> (
      match Store.get t.store ~oid with
      | Some data ->
          let o = Obj.decode ~oid data in
          Hashtbl.replace t.cache oid o;
          o
      | None -> invalid_arg (Printf.sprintf "raw: no object %d" oid))

let set t oid attr v =
  let o = Obj.with_attr (get t oid) attr v in
  Hashtbl.replace t.cache oid o;
  persist t o

let get_attr t oid attr = Obj.get (get t oid) attr

let refs t oid attr : int list =
  match get_attr t oid attr with
  | Value.VList l | Value.VSet l -> List.filter_map (function Value.VRef o -> Some o | _ -> None) l
  | Value.VRef o -> [ o ]
  | _ -> []

let push_ref t oid attr target =
  let l = match get_attr t oid attr with Value.VList l -> l | _ -> [] in
  set t oid attr (Value.VList (vref target :: l))

let remove_ref t oid attr target =
  let l = match get_attr t oid attr with Value.VList l -> l | _ -> [] in
  set t oid attr (Value.VList (List.filter (fun v -> v <> vref target) l))

let delete t oid =
  Hashtbl.remove t.cache oid;
  ignore (Store.delete t.store ~oid)

(** Generate the same logical OO7 database as {!Oo7_gen}, with embedded
    references. *)
let generate (t : t) (p : S.params) : S.handles =
  let rng = Random.State.make [| p.S.seed |] in
  let next_id = ref 0 in
  let id () =
    incr next_id;
    !next_id
  in
  let atomics = ref [] in
  let documents = ref [] in
  let composites =
    Array.init p.S.num_comp_per_module (fun _ ->
        let doc =
          create t S.document
            [ ("title", vstr "doc"); ("text", vstr (String.make p.S.doc_size 'd')) ]
        in
        documents := doc :: !documents;
        let parts =
          Array.init p.S.num_atomic_per_comp (fun _ ->
              let a =
                create t S.atomic_part
                  [
                    ("id", vint (id ()));
                    ("x", vint (Random.State.int rng 100000));
                    ("y", vint (Random.State.int rng 100000));
                    ("buildDate", vint (Random.State.int rng 10000));
                    ("conns", Value.VList []);
                  ]
              in
              atomics := a :: !atomics;
              a)
        in
        let n = Array.length parts in
        Array.iteri
          (fun i a ->
            for k = 0 to p.S.num_conn_per_atomic - 1 do
              let target = if k = 0 then parts.((i + 1) mod n) else parts.(Random.State.int rng n) in
              push_ref t a "conns" target
            done)
          parts;
        create t S.composite_part
          [
            ("id", vint (id ()));
            ("buildDate", vint (Random.State.int rng 10000));
            ("doc", vref doc);
            ("rootPart", vref parts.(0));
            ("parts", Value.VList (Array.to_list (Array.map vref parts)));
          ])
  in
  let base_assemblies = ref [] in
  let rec build_assembly level =
    if level >= p.S.num_assm_levels then begin
      let comps = ref [] in
      for _ = 1 to p.S.num_comp_per_assm do
        let c = composites.(Random.State.int rng (Array.length composites)) in
        if not (List.mem c !comps) then comps := c :: !comps
      done;
      let ba =
        create t S.base_assembly
          [ ("id", vint (id ())); ("components", Value.VList (List.map vref !comps)) ]
      in
      base_assemblies := ba :: !base_assemblies;
      ba
    end
    else begin
      let children = List.init p.S.num_assm_per_assm (fun _ -> build_assembly (level + 1)) in
      create t S.complex_assembly
        [ ("id", vint (id ())); ("sub", Value.VList (List.map vref children)) ]
    end
  in
  let root = build_assembly 1 in
  let module_oid = create t S.module_cls [ ("id", vint (id ())); ("designRoot", vref root) ] in
  {
    S.module_oid;
    root_assembly = root;
    base_assemblies = Array.of_list (List.rev !base_assemblies);
    composites;
    atomics = Array.of_list (List.rev !atomics);
    documents = Array.of_list (List.rev !documents);
  }
