(** The Prometheus meta-model: class and relationship definitions.

    Follows thesis ch. 4.2–4.4.  A schema holds plain (object) classes
    and relationship classes.  Relationship classes are first-class:
    they have their own attributes, a kind (aggregation/association),
    and built-in semantic attributes (exclusivity, sharability,
    lifetime dependency, constancy, cardinalities, attribute
    inheritance for role acquisition). *)

open Pstore

exception Schema_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

type attr_def = {
  attr_name : string;
  attr_ty : Value.ty;
  required : bool; (* must be non-null once the enclosing transaction commits *)
  default : Value.t;
}

let attr ?(required = false) ?(default = Value.VNull) attr_name attr_ty =
  { attr_name; attr_ty; required; default }

type class_def = {
  class_name : string;
  supers : string list;
  attrs : attr_def list; (* own attributes, excluding inherited *)
  abstract : bool;
}

(** Relationship kind (thesis 4.4.1–4.4.2). *)
type rel_kind = Aggregation | Association

let pp_rel_kind ppf = function
  | Aggregation -> Format.pp_print_string ppf "aggregation"
  | Association -> Format.pp_print_string ppf "association"

(** Cardinality bound for one side of a relationship class. *)
type card = { cmin : int; cmax : int option }

let card ?(cmin = 0) ?cmax () = { cmin; cmax }
let many = { cmin = 0; cmax = None }
let exactly_one = { cmin = 1; cmax = Some 1 }
let at_most_one = { cmin = 0; cmax = Some 1 }

let pp_card ppf c =
  match c.cmax with
  | None -> Format.fprintf ppf "%d..*" c.cmin
  | Some m -> Format.fprintf ppf "%d..%d" c.cmin m

type rel_def = {
  rel_name : string;
  rel_supers : string list; (* relationship classes can be specialised *)
  origin : string; (* class name *)
  destination : string; (* class name *)
  kind : rel_kind;
  (* how many outgoing instances an origin object may have *)
  card_out : card;
  (* how many incoming instances a destination object may have *)
  card_in : card;
  (* built-in semantic attributes (thesis 4.4.3, figs. 12-16):
     - exclusive: within one classification context a destination has at
       most one incoming instance of this relationship class;
     - sharable: if false, a destination has at most one incoming
       instance of this class across *all* contexts;
     - lifetime_dep: destination existence depends on the relationship
       (deleting the origin cascades, thesis "dependency");
     - constant: endpoints cannot be re-targeted after creation. *)
  exclusive : bool;
  sharable : bool;
  lifetime_dep : bool;
  constant : bool;
  (* attribute inheritance / roles (thesis 4.4.5): relationship
     attributes listed here are visible as derived attributes on the
     destination object. *)
  inherited_attrs : string list;
  rel_attrs : attr_def list;
}

(** Allowed combinations of built-in behaviours (thesis Table 3):
    aggregations may be lifetime-dependent and non-sharable;
    associations must be sharable and must not be lifetime-dependent
    (a pure association never owns its destination). *)
let check_rel_combination (r : rel_def) =
  match r.kind with
  | Aggregation -> ()
  | Association ->
      if r.lifetime_dep then
        fail "relationship %s: an association cannot be lifetime-dependent" r.rel_name;
      if not r.sharable then
        fail "relationship %s: an association must be sharable" r.rel_name

let rel ?(supers = []) ?(kind = Association) ?(card_out = many) ?(card_in = many)
    ?(exclusive = false) ?(sharable = true) ?(lifetime_dep = false) ?(constant = false)
    ?(inherited_attrs = []) ?(attrs = []) rel_name ~origin ~destination =
  let r =
    {
      rel_name;
      rel_supers = supers;
      origin;
      destination;
      kind;
      card_out;
      card_in;
      exclusive;
      sharable;
      lifetime_dep;
      constant;
      inherited_attrs;
      rel_attrs = attrs;
    }
  in
  check_rel_combination r;
  r

(* ---------------------------------------------------------------------- *)
(* Schema                                                                  *)
(* ---------------------------------------------------------------------- *)

type t = {
  classes : (string, class_def) Hashtbl.t;
  rels : (string, rel_def) Hashtbl.t;
  (* declared secondary indexes (class, attribute) (thesis 6.1.4): part
     of the persisted schema, so every handle on the file — reopened,
     rolled back or following a primary — builds the same indexes *)
  index_decls : (string * string, unit) Hashtbl.t;
}

let object_class = "Object"

(** Built-in classes present in every schema. *)
let builtin_classes =
  [
    { class_name = object_class; supers = []; attrs = []; abstract = true };
    (* classification contexts (thesis 4.6.2) *)
    {
      class_name = "Context";
      supers = [ object_class ];
      attrs = [ attr "name" Value.TString; attr "description" Value.TString ];
      abstract = false;
    };
  ]

let empty () =
  let t = { classes = Hashtbl.create 64; rels = Hashtbl.create 64; index_decls = Hashtbl.create 8 } in
  List.iter (fun c -> Hashtbl.replace t.classes c.class_name c) builtin_classes;
  t

(** An independent schema with the same definitions (the definitions
    themselves are immutable and shared). *)
let copy t =
  { classes = Hashtbl.copy t.classes; rels = Hashtbl.copy t.rels; index_decls = Hashtbl.copy t.index_decls }

let find_class t name = Hashtbl.find_opt t.classes name
let find_rel t name = Hashtbl.find_opt t.rels name

let class_exn t name =
  match find_class t name with Some c -> c | None -> fail "unknown class %s" name

let rel_exn t name =
  match find_rel t name with Some r -> r | None -> fail "unknown relationship class %s" name

let is_class t name = Hashtbl.mem t.classes name
let is_rel t name = Hashtbl.mem t.rels name

let classes t = Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []
let rels t = Hashtbl.fold (fun _ r acc -> r :: acc) t.rels []

(** All (transitive) superclasses of a class, excluding itself. *)
let rec superclasses t name : string list =
  match find_class t name with
  | None -> []
  | Some c ->
      List.concat_map (fun s -> s :: superclasses t s) c.supers |> List.sort_uniq compare

let rec rel_superclasses t name : string list =
  match find_rel t name with
  | None -> []
  | Some r ->
      List.concat_map (fun s -> s :: rel_superclasses t s) r.rel_supers
      |> List.sort_uniq compare

(** [is_subclass t ~sub ~super]: reflexive-transitive subclassing over
    both object classes and relationship classes. *)
let is_subclass t ~sub ~super =
  sub = super
  || List.mem super (superclasses t sub)
  || List.mem super (rel_superclasses t sub)
  || (super = object_class && (is_class t sub || is_rel t sub))

(** Direct and transitive subclasses of [name] (including itself). *)
let subclasses t name : string list =
  Hashtbl.fold
    (fun n _ acc -> if is_subclass t ~sub:n ~super:name then n :: acc else acc)
    t.classes []

let rel_subclasses t name : string list =
  Hashtbl.fold
    (fun n _ acc -> if is_subclass t ~sub:n ~super:name then n :: acc else acc)
    t.rels []

(** All attributes of a class or relationship class, including
    inherited ones.  Subclass definitions override superclass
    definitions of the same name (covariant redefinition). *)
let all_attrs t name : attr_def list =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add a =
    if not (Hashtbl.mem seen a.attr_name) then begin
      Hashtbl.replace seen a.attr_name ();
      out := a :: !out
    end
  in
  let rec walk n =
    (match find_class t n with
    | Some c ->
        List.iter add c.attrs;
        List.iter walk c.supers
    | None -> ());
    match find_rel t n with
    | Some r ->
        List.iter add r.rel_attrs;
        List.iter walk r.rel_supers
    | None -> ()
  in
  walk name;
  List.rev !out

let find_attr t name attr_name =
  List.find_opt (fun a -> a.attr_name = attr_name) (all_attrs t name)

(* ---------------------------------------------------------------------- *)
(* Schema definition with validation                                       *)
(* ---------------------------------------------------------------------- *)

let add_class t (c : class_def) =
  if Hashtbl.mem t.classes c.class_name || Hashtbl.mem t.rels c.class_name then
    fail "class %s already defined" c.class_name;
  List.iter
    (fun s -> if not (Hashtbl.mem t.classes s) then fail "class %s: unknown superclass %s" c.class_name s)
    c.supers;
  let c =
    if c.supers = [] && c.class_name <> object_class then { c with supers = [ object_class ] }
    else c
  in
  Hashtbl.replace t.classes c.class_name c

let define_class t ?(supers = []) ?(abstract = false) class_name attrs =
  add_class t { class_name; supers; attrs; abstract };
  class_exn t class_name

let add_rel t (r : rel_def) =
  if Hashtbl.mem t.rels r.rel_name || Hashtbl.mem t.classes r.rel_name then
    fail "relationship class %s already defined" r.rel_name;
  if not (Hashtbl.mem t.classes r.origin) then
    fail "relationship %s: unknown origin class %s" r.rel_name r.origin;
  if not (Hashtbl.mem t.classes r.destination) then
    fail "relationship %s: unknown destination class %s" r.rel_name r.destination;
  List.iter
    (fun s ->
      match Hashtbl.find_opt t.rels s with
      | None -> fail "relationship %s: unknown super relationship %s" r.rel_name s
      | Some super ->
          (* covariance: endpoints of the sub-relationship must conform *)
          if not (is_subclass t ~sub:r.origin ~super:super.origin) then
            fail "relationship %s: origin %s does not specialise %s" r.rel_name r.origin super.origin;
          if not (is_subclass t ~sub:r.destination ~super:super.destination) then
            fail "relationship %s: destination %s does not specialise %s" r.rel_name r.destination
              super.destination)
    r.rel_supers;
  check_rel_combination r;
  List.iter
    (fun a ->
      if not (List.exists (fun d -> d.attr_name = a) r.rel_attrs) then
        fail "relationship %s: inherited attribute %s is not a relationship attribute" r.rel_name a)
    r.inherited_attrs;
  Hashtbl.replace t.rels r.rel_name r

let define_rel t ?supers ?kind ?card_out ?card_in ?exclusive ?sharable ?lifetime_dep ?constant
    ?inherited_attrs ?attrs rel_name ~origin ~destination =
  let r =
    rel ?supers ?kind ?card_out ?card_in ?exclusive ?sharable ?lifetime_dep ?constant
      ?inherited_attrs ?attrs rel_name ~origin ~destination
  in
  add_rel t r;
  r

(* ---------------------------------------------------------------------- *)
(* Index declarations                                                      *)
(* ---------------------------------------------------------------------- *)

let declare_index t ~cls ~attr =
  if not (is_class t cls || is_rel t cls) then fail "index on unknown class %s" cls;
  Hashtbl.replace t.index_decls (cls, attr) ()

let undeclare_index t ~cls ~attr = Hashtbl.remove t.index_decls (cls, attr)

(** Declared indexes, sorted. *)
let index_decls t = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.index_decls [])

(* ---------------------------------------------------------------------- *)
(* Serialisation (the schema itself is stored in the database)             *)
(* ---------------------------------------------------------------------- *)

let encode_attr e (a : attr_def) =
  Codec.Enc.string e a.attr_name;
  Value.encode_ty e a.attr_ty;
  Codec.Enc.bool e a.required;
  Value.encode e a.default

let decode_attr d =
  let attr_name = Codec.Dec.string d in
  let attr_ty = Value.decode_ty d in
  let required = Codec.Dec.bool d in
  let default = Value.decode d in
  { attr_name; attr_ty; required; default }

let encode_string_list e l =
  Codec.Enc.u16 e (List.length l);
  List.iter (Codec.Enc.string e) l

let decode_string_list d =
  let n = Codec.Dec.u16 d in
  List.init n (fun _ -> Codec.Dec.string d)

let encode_card e c =
  Codec.Enc.u32 e c.cmin;
  match c.cmax with
  | None -> Codec.Enc.bool e false
  | Some m ->
      Codec.Enc.bool e true;
      Codec.Enc.u32 e m

let decode_card d =
  let cmin = Codec.Dec.u32 d in
  let cmax = if Codec.Dec.bool d then Some (Codec.Dec.u32 d) else None in
  { cmin; cmax }

let encode t : string =
  let e = Codec.Enc.create ~size:4096 () in
  let user_classes = List.filter (fun c -> not (List.exists (fun b -> b.class_name = c.class_name) builtin_classes)) (classes t) in
  Codec.Enc.u32 e (List.length user_classes);
  List.iter
    (fun c ->
      Codec.Enc.string e c.class_name;
      encode_string_list e c.supers;
      Codec.Enc.bool e c.abstract;
      Codec.Enc.u16 e (List.length c.attrs);
      List.iter (encode_attr e) c.attrs)
    user_classes;
  let rels = rels t in
  Codec.Enc.u32 e (List.length rels);
  List.iter
    (fun r ->
      Codec.Enc.string e r.rel_name;
      encode_string_list e r.rel_supers;
      Codec.Enc.string e r.origin;
      Codec.Enc.string e r.destination;
      Codec.Enc.u8 e (match r.kind with Aggregation -> 0 | Association -> 1);
      encode_card e r.card_out;
      encode_card e r.card_in;
      Codec.Enc.bool e r.exclusive;
      Codec.Enc.bool e r.sharable;
      Codec.Enc.bool e r.lifetime_dep;
      Codec.Enc.bool e r.constant;
      encode_string_list e r.inherited_attrs;
      Codec.Enc.u16 e (List.length r.rel_attrs);
      List.iter (encode_attr e) r.rel_attrs)
    rels;
  (* trailing section, written only when non-empty: a schema without
     index declarations encodes exactly as it did before they existed *)
  (match index_decls t with
  | [] -> ()
  | decls ->
      Codec.Enc.u32 e (List.length decls);
      List.iter
        (fun (cls, attr) ->
          Codec.Enc.string e cls;
          Codec.Enc.string e attr)
        decls);
  Codec.Enc.to_string e

(** Decode a stored schema record over [t].  Definitions are added (the
    class and relationship sets only grow); the index declarations are
    replaced by the record's, none when it has no trailing section. *)
let decode_into t (s : string) =
  let d = Codec.Dec.of_string s in
  let nclasses = Codec.Dec.u32 d in
  (* two passes not needed if stored in definition order; we sort
     topologically by inserting repeatedly *)
  let pending = ref [] in
  for _ = 1 to nclasses do
    let class_name = Codec.Dec.string d in
    let supers = decode_string_list d in
    let abstract = Codec.Dec.bool d in
    let nattrs = Codec.Dec.u16 d in
    let attrs = List.init nattrs (fun _ -> decode_attr d) in
    pending := { class_name; supers; attrs; abstract } :: !pending
  done;
  let rec drain classes =
    if classes <> [] then begin
      let ready, blocked =
        List.partition (fun c -> List.for_all (fun s -> Hashtbl.mem t.classes s) c.supers) classes
      in
      if ready = [] then fail "schema decode: cyclic or dangling class hierarchy";
      List.iter (fun c -> Hashtbl.replace t.classes c.class_name c) ready;
      drain blocked
    end
  in
  drain (List.rev !pending);
  let nrels = Codec.Dec.u32 d in
  for _ = 1 to nrels do
    let rel_name = Codec.Dec.string d in
    let rel_supers = decode_string_list d in
    let origin = Codec.Dec.string d in
    let destination = Codec.Dec.string d in
    let kind = match Codec.Dec.u8 d with 0 -> Aggregation | _ -> Association in
    let card_out = decode_card d in
    let card_in = decode_card d in
    let exclusive = Codec.Dec.bool d in
    let sharable = Codec.Dec.bool d in
    let lifetime_dep = Codec.Dec.bool d in
    let constant = Codec.Dec.bool d in
    let inherited_attrs = decode_string_list d in
    let nattrs = Codec.Dec.u16 d in
    let rel_attrs = List.init nattrs (fun _ -> decode_attr d) in
    Hashtbl.replace t.rels rel_name
      {
        rel_name;
        rel_supers;
        origin;
        destination;
        kind;
        card_out;
        card_in;
        exclusive;
        sharable;
        lifetime_dep;
        constant;
        inherited_attrs;
        rel_attrs;
      }
  done;
  Hashtbl.reset t.index_decls;
  if not (Codec.Dec.eof d) then
    for _ = 1 to Codec.Dec.u32 d do
      let cls = Codec.Dec.string d in
      let attr = Codec.Dec.string d in
      Hashtbl.replace t.index_decls (cls, attr) ()
    done
