(* Staged compilation of MiniLang programs.

   Compilation is split in two:

   - {!image} does the one-time work for a program: static scope
     resolution (locals and parameters become array slot indices),
     flattened per-class dispatch tables and inherited-field templates
     (no [lookup_method]/[all_fields] chain walks at runtime), static
     resolution of [super], [new] and free-function call sites, and a
     single translation of every expression and statement into an OCaml
     closure ([Vm.t -> frame -> Value.t]).  The resulting image is
     immutable and safe to share — including across campaign domains.

   - {!instantiate} turns an image into a fresh {!Vm.t} cheaply: a new
     heap/output/globals/counters plus per-run copies of the mutable
     method entries, so load-time interposition (attaching filters to
     method entries — the analog of the paper's bytecode-level JWG
     instrumentation) still works per run without source access.

   [program] remains [instantiate ∘ image].  Each detection run
   instantiates its own VM, guaranteeing independent heaps across runs,
   but the image is built once per program×flavor instead of once per
   injection run.

   Semantics are bit-for-bit those of the previous direct AST
   interpreter: every compiled closure ticks {!Vm.tick} exactly where
   [eval]/[exec] did, evaluation order is preserved, and every dynamic
   error keeps its message.  Call sites resolved statically fall back
   to the dynamic [Vm] lookup when the receiver's class or method is
   not in the image (e.g. added to a VM by hand after compilation). *)

open Failatom_runtime
module Obs = Failatom_obs.Obs

(* A genuine defect in the interpreted program (unknown variable, bad
   arity, ...) as opposed to a MiniLang-level exception, which is raised
   as {!Vm.Mini_raise} and is catchable in-language. *)
exception Runtime_error of string * Ast.pos

let runtime_error pos fmt = Fmt.kstr (fun s -> raise (Runtime_error (s, pos))) fmt

(* Non-local control flow within a method body. *)
exception Return_value of Value.t
exception Break_loop
exception Continue_loop

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* One activation record: a flat slot array indexed by the compile-time
   scope resolution (one slot per distinct variable name in the body —
   MiniLang scoping is function-level, redeclaration overwrites).  Slots
   start out holding the private [unbound] sentinel; reading one is the
   "unknown variable" error of the old name-keyed frames. *)
type frame = { slots : Value.t array; mutable this : Value.t }

(* Compared with (==): no program value is ever physically this one. *)
let unbound : Value.t = Value.Str "\000<unbound>"

type ecode = Vm.t -> frame -> Value.t
type scode = Vm.t -> frame -> unit

(* Root enumeration scans the slot array in place — no list is rebuilt
   per collection.  Marking the sentinel is harmless (it is a string). *)
let frame_roots frame (mark : Value.t -> unit) =
  mark frame.this;
  let slots = frame.slots in
  for i = 0 to Array.length slots - 1 do
    mark (Array.unsafe_get slots i)
  done

(* ------------------------------------------------------------------ *)
(* Program images                                                      *)
(* ------------------------------------------------------------------ *)

type imeth = {
  im_class : string; (* defining class *)
  im_name : string;
  im_params : string list;
  im_throws : string list;
  mutable im_impl : Vm.impl; (* set once the whole image is laid out *)
}

type iclass = {
  ic_name : string;
  ic_super : string option; (* declared superclass name, resolved or not *)
  ic_decl_fields : string list;
  ic_template : (string * Value.t) list;
      (* all fields (inherited first) bound to Null; [Heap.alloc_object]
         copies it, so one immutable template serves every [new] *)
  ic_dispatch : (string, int) Hashtbl.t;
      (* method name -> method index, own and inherited flattened *)
  ic_is_exception : bool; (* transitively extends Throwable *)
  ic_user : bool; (* declared by the program (installed per run) *)
}

type ifunc = {
  if_name : string;
  if_params : string list;
  mutable if_impl : Vm.t -> Value.t list -> Value.t;
}

type image = {
  img_classes : (string, iclass) Hashtbl.t; (* user and builtin *)
  img_class_order : iclass array; (* user classes, program order *)
  img_methods : imeth array;
  img_functions : ifunc array; (* program order; duplicates last-wins *)
  img_fn_index : (string, int) Hashtbl.t;
}

(* Compilation context for one method or function body. *)
type cx = {
  cx_image : image;
  cx_slots : (string, int) Hashtbl.t; (* variable name -> frame slot *)
  cx_defining : (string * string option) option;
      (* enclosing class and its superclass, for [super] resolution *)
}

(* Subclass test over the image's class table (same chain walk as
   [Vm.is_subclass], on static data). *)
let rec img_is_subclass img c1 c2 =
  String.equal c1 c2
  || match Hashtbl.find_opt img.img_classes c1 with
     | Some { ic_super = Some s; _ } -> img_is_subclass img s c2
     | Some { ic_super = None; _ } | None -> false

(* Classes outside the image (added to a VM by hand) fall back to the
   dynamic walk, preserving the old interpreter's behavior exactly. *)
let is_exception_class img vm cls =
  match Hashtbl.find_opt img.img_classes cls with
  | Some ic -> ic.ic_is_exception
  | None -> Vm.is_exception_class vm cls

let exn_matches img vm (exn_v : Vm.exn_value) handler =
  if Hashtbl.mem img.img_classes exn_v.Vm.exn_class then
    img_is_subclass img exn_v.Vm.exn_class handler
  else Vm.is_subclass vm exn_v.Vm.exn_class handler

(* [lookup_method] over the flattened dispatch tables. *)
let resolve_method img cls mname =
  match Hashtbl.find_opt img.img_classes cls with
  | Some ic -> Hashtbl.find_opt ic.ic_dispatch mname
  | None -> None

(* ------------------------------------------------------------------ *)
(* Runtime helpers shared by the compiled closures                     *)
(* ------------------------------------------------------------------ *)

(* Interned results for the arithmetic and comparison paths: [Value.Int]
   and [Value.Bool] are heap blocks, and most intermediate results are
   small (loop counters, sizes, flags).  Interning changes physical
   identity only — MiniLang has no identity test on primitives, and the
   pool is immutable after module init, so sharing it across campaign
   domains is safe. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse
let small_int_lo = -128
let small_int_hi = 1023

let small_ints =
  Array.init (small_int_hi - small_int_lo + 1) (fun i -> Value.Int (small_int_lo + i))

let vint n =
  if n >= small_int_lo && n <= small_int_hi then
    Array.unsafe_get small_ints (n - small_int_lo)
  else Value.Int n

let eval_binop vm pos op (a : Value.t) (b : Value.t) : Value.t =
  match op, a, b with
  | Ast.Add, Value.Int x, Value.Int y -> vint (x + y)
  | Ast.Add, Value.Str x, y -> Value.Str (x ^ Value.to_display_string y)
  | Ast.Add, x, Value.Str y -> Value.Str (Value.to_display_string x ^ y)
  | Ast.Sub, Value.Int x, Value.Int y -> vint (x - y)
  | Ast.Mul, Value.Int x, Value.Int y -> vint (x * y)
  | Ast.Div, Value.Int x, Value.Int y ->
    if y = 0 then Vm.throw vm "ArithmeticException" "division by zero"
    else vint (x / y)
  | Ast.Mod, Value.Int x, Value.Int y ->
    if y = 0 then Vm.throw vm "ArithmeticException" "modulo by zero"
    else vint (x mod y)
  | Ast.Eq, x, y -> vbool (Value.equal x y)
  | Ast.Neq, x, y -> vbool (not (Value.equal x y))
  | Ast.Lt, Value.Int x, Value.Int y -> vbool (x < y)
  | Ast.Le, Value.Int x, Value.Int y -> vbool (x <= y)
  | Ast.Gt, Value.Int x, Value.Int y -> vbool (x > y)
  | Ast.Ge, Value.Int x, Value.Int y -> vbool (x >= y)
  | Ast.Lt, Value.Str x, Value.Str y -> vbool (String.compare x y < 0)
  | Ast.Le, Value.Str x, Value.Str y -> vbool (String.compare x y <= 0)
  | Ast.Gt, Value.Str x, Value.Str y -> vbool (String.compare x y > 0)
  | Ast.Ge, Value.Str x, Value.Str y -> vbool (String.compare x y >= 0)
  | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), x, y ->
    runtime_error pos "operator %s not defined on %s and %s"
      (Pretty.binop_str op) (Value.type_name x) (Value.type_name y)

(* Field and element access match the payload directly: one store read
   and one field-table probe, no intermediate options. *)

let get_obj_field vm pos recv field =
  match (recv : Value.t) with
  | Value.Null -> Vm.throw vm "NullPointerException" ("read of field " ^ field ^ " on null")
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; fields } -> (
      match Hashtbl.find fields field with
      | v -> v
      | exception Not_found -> runtime_error pos "class %s has no field %s" cls field)
    | Heap.Arr _ -> runtime_error pos "arrays have no fields (reading %s)" field)
  | v -> runtime_error pos "field read %s on %s" field (Value.type_name v)

let set_obj_field vm pos recv field v =
  match (recv : Value.t) with
  | Value.Null -> Vm.throw vm "NullPointerException" ("write of field " ^ field ^ " on null")
  | Value.Ref id -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Obj { cls; fields } ->
      if Option.is_none (Hashtbl.find_opt fields field) then
        runtime_error pos "class %s has no field %s" cls field
      else Heap.set_field vm.Vm.heap id field v
    | Heap.Arr _ -> runtime_error pos "arrays have no fields (writing %s)" field)
  | v -> runtime_error pos "field write %s on %s" field (Value.type_name v)

let get_index vm pos recv idx =
  match (recv : Value.t), (idx : Value.t) with
  | Value.Null, _ -> Vm.throw vm "NullPointerException" "index read on null"
  | Value.Ref id, Value.Int i -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Arr a ->
      if i >= 0 && i < Array.length a then Array.unsafe_get a i
      else
        Vm.throw vm "IndexOutOfBoundsException"
          (Printf.sprintf "index %d of %d" i (Array.length a))
    | Heap.Obj _ -> runtime_error pos "indexing a non-array object")
  | Value.Ref _, v -> runtime_error pos "array index must be int, got %s" (Value.type_name v)
  | v, _ -> runtime_error pos "indexing %s" (Value.type_name v)

let set_index vm pos recv idx v =
  match (recv : Value.t), (idx : Value.t) with
  | Value.Null, _ -> Vm.throw vm "NullPointerException" "index write on null"
  | Value.Ref id, Value.Int i -> (
    match Heap.get vm.Vm.heap id with
    | Heap.Arr a ->
      (* Heap.set_elem, not a direct store: the write barrier feeds the
         active snapshot shadows *)
      if not (Heap.set_elem vm.Vm.heap id i v) then
        Vm.throw vm "IndexOutOfBoundsException"
          (Printf.sprintf "index %d of %d" i (Array.length a))
    | Heap.Obj _ -> runtime_error pos "indexing a non-array object")
  | Value.Ref _, w -> runtime_error pos "array index must be int, got %s" (Value.type_name w)
  | v, _ -> runtime_error pos "indexing %s" (Value.type_name v)

(* Dynamic instantiation, for classes the image does not know (only
   reachable when classes were added to the VM by hand): allocates the
   object with all (inherited) fields null, then runs [init] if the
   class defines or inherits one.  [init] is an ordinary method: it is
   counted, filtered and woven like any other (the paper injects into
   constructor calls too). *)
let instantiate_dyn vm pos cls args =
  if not (Vm.class_exists vm cls) then runtime_error pos "unknown class %s" cls;
  let fields = List.map (fun f -> (f, Value.Null)) (Vm.all_fields vm cls) in
  let id = Heap.alloc_object vm.Vm.heap ~cls fields in
  let recv = Value.Ref id in
  (match Vm.lookup_method vm cls "init" with
   | Some _ -> ignore (Vm.invoke vm recv "init" args)
   | None -> (
     (* Built-in exception classes have no init; a single string
        argument sets the message field, as in Java's Throwable. *)
     match args with
     | [] -> ()
     | [ Value.Str m ] when Vm.is_exception_class vm cls ->
       Heap.set_field vm.Vm.heap id "message" (Value.Str m)
     | _ -> runtime_error pos "class %s has no init method" cls));
  recv

(* Argument evaluation, head first — the order [List.map (eval vm
   frame)] used. *)
let rec eval_args vm frame = function
  | [] -> []
  | (c : ecode) :: rest ->
    let v = c vm frame in
    v :: eval_args vm frame rest

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let rec compile_expr cx (e : Ast.expr) : ecode =
  let pos = e.Ast.epos in
  match e.Ast.e with
  | Ast.Int_lit n ->
    let v = Value.Int n in
    fun vm _ -> Vm.tick vm; v
  | Ast.Str_lit s ->
    let v = Value.Str s in
    fun vm _ -> Vm.tick vm; v
  | Ast.Bool_lit b ->
    let v = Value.Bool b in
    fun vm _ -> Vm.tick vm; v
  | Ast.Null_lit -> fun vm _ -> Vm.tick vm; Value.Null
  | Ast.This -> fun vm frame -> Vm.tick vm; frame.this
  | Ast.Var x -> (
    match Hashtbl.find_opt cx.cx_slots x with
    | Some i ->
      fun vm frame ->
        Vm.tick vm;
        let v = Array.unsafe_get frame.slots i in
        if v == unbound then runtime_error pos "unknown variable %s" x else v
    | None ->
      (* never declared anywhere in this body *)
      fun vm _ -> Vm.tick vm; runtime_error pos "unknown variable %s" x)
  | Ast.Unary (Ast.Neg, a) ->
    let ca = compile_expr cx a in
    fun vm frame ->
      Vm.tick vm;
      (match ca vm frame with
       | Value.Int n -> vint (-n)
       | v -> runtime_error pos "negation of %s" (Value.type_name v))
  | Ast.Unary (Ast.Not, a) ->
    let ca = compile_expr cx a in
    fun vm frame ->
      Vm.tick vm;
      vbool (not (Value.truthy (ca vm frame)))
  | Ast.Binary (op, a, b) ->
    let ca = compile_expr cx a in
    let cb = compile_expr cx b in
    fun vm frame ->
      Vm.tick vm;
      let va = ca vm frame in
      let vb = cb vm frame in
      eval_binop vm pos op va vb
  | Ast.And (a, b) ->
    let ca = compile_expr cx a in
    let cb = compile_expr cx b in
    fun vm frame ->
      Vm.tick vm;
      if Value.truthy (ca vm frame) then vbool (Value.truthy (cb vm frame))
      else vfalse
  | Ast.Or (a, b) ->
    let ca = compile_expr cx a in
    let cb = compile_expr cx b in
    fun vm frame ->
      Vm.tick vm;
      if Value.truthy (ca vm frame) then vtrue
      else vbool (Value.truthy (cb vm frame))
  | Ast.Field (r, f) ->
    let cr = compile_expr cx r in
    fun vm frame ->
      Vm.tick vm;
      get_obj_field vm pos (cr vm frame) f
  | Ast.Index (r, i) ->
    let cr = compile_expr cx r in
    let ci = compile_expr cx i in
    fun vm frame ->
      Vm.tick vm;
      let recv = cr vm frame in
      let idx = ci vm frame in
      get_index vm pos recv idx
  | Ast.Call (r, m, args) ->
    let cr = compile_expr cx r in
    let cargs = List.map (compile_expr cx) args in
    let img = cx.cx_image in
    (* Per-site monomorphic inline cache: most call sites only ever see
       one receiver class, and its name is usually the physically same
       string (it comes from the site's [new] template).  The cached
       pair is replaced with a single write, so sharing the image
       across campaign domains stays race-free (a stale read just falls
       back to the table lookup). *)
    let cache = ref ("", -1) in
    fun vm frame ->
      Vm.tick vm;
      let recv = cr vm frame in
      let vargs = eval_args vm frame cargs in
      (match recv with
       | Value.Ref id -> (
         match Heap.get vm.Vm.heap id with
         | Heap.Obj { cls; _ } ->
           let ccls, cidx = !cache in
           if cls == ccls then begin
             vm.Vm.ic_hits <- vm.Vm.ic_hits + 1;
             Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table cidx) recv vargs
           end
           else begin
             vm.Vm.ic_misses <- vm.Vm.ic_misses + 1;
             match resolve_method img cls m with
             | Some idx ->
               cache := (cls, idx);
               Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table idx) recv vargs
             | None ->
               (* receiver class or method outside the image *)
               Vm.call_filtered vm (Vm.find_method vm cls m) recv vargs
           end
         | Heap.Arr _ ->
           Vm.throw vm "UnsupportedOperationException" ("method call on array: " ^ m))
       | Value.Null ->
         Vm.throw vm "NullPointerException" ("call of " ^ m ^ " on null")
       | Value.Int _ | Value.Bool _ | Value.Str _ ->
         Vm.throw vm "UnsupportedOperationException"
           (Printf.sprintf "call of %s on %s" m (Value.type_name recv)))
  | Ast.Super_call (m, args) -> (
    (* Static dispatch starting above the defining class of the
       enclosing method, both known at compile time. *)
    let cargs = List.map (compile_expr cx) args in
    match cx.cx_defining with
    | None -> fun vm _ -> Vm.tick vm; runtime_error pos "super call outside of a method"
    | Some (defining, None) ->
      fun vm _ -> Vm.tick vm; runtime_error pos "class %s has no superclass" defining
    | Some (defining, Some super) -> (
      match resolve_method cx.cx_image super m with
      | Some idx ->
        fun vm frame ->
          Vm.tick vm;
          let vargs = eval_args vm frame cargs in
          Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table idx) frame.this vargs
      | None ->
        fun vm frame ->
          Vm.tick vm;
          (match Vm.lookup_method vm super m with
           | Some meth ->
             let vargs = eval_args vm frame cargs in
             Vm.call_filtered vm meth frame.this vargs
           | None -> runtime_error pos "no method %s in superclasses of %s" m defining)))
  | Ast.Fn_call (name, args) ->
    let cargs = List.map (compile_expr cx) args in
    let nargs = List.length args in
    (* Static resolution, in the dynamic lookup order: user functions
       shadow builtins.  Hooks are per-VM and still take precedence at
       runtime (checked only when any hook is registered). *)
    let target : Vm.t -> Value.t list -> Value.t =
      match Hashtbl.find_opt cx.cx_image.img_fn_index name with
      | Some idx ->
        let fn = cx.cx_image.img_functions.(idx) in
        let arity = List.length fn.if_params in
        if nargs <> arity then
          fun _ _ ->
            runtime_error pos "function %s expects %d argument(s), got %d" name arity nargs
        else fun vm vargs -> fn.if_impl vm vargs
      | None -> (
        match Builtins.find name with
        | Some (arity, f) ->
          if nargs <> arity then
            fun _ _ ->
              runtime_error pos "builtin %s: expected %d argument(s), got %d" name arity
                nargs
          else
            fun vm vargs ->
              (try f vm vargs
               with Invalid_argument msg -> runtime_error pos "%s" msg)
        | None -> fun _ _ -> runtime_error pos "unknown function %s" name)
    in
    fun vm frame ->
      Vm.tick vm;
      let vargs = eval_args vm frame cargs in
      if Hashtbl.length vm.Vm.hooks = 0 then target vm vargs
      else (
        match Vm.find_hook vm name with
        | Some hook -> hook vm vargs
        | None -> target vm vargs)
  | Ast.New (cls, args) -> (
    let cargs = List.map (compile_expr cx) args in
    match Hashtbl.find_opt cx.cx_image.img_classes cls with
    | None ->
      fun vm frame ->
        Vm.tick vm;
        let vargs = eval_args vm frame cargs in
        instantiate_dyn vm pos cls vargs
    | Some ic -> (
      match Hashtbl.find_opt ic.ic_dispatch "init" with
      | Some idx ->
        fun vm frame ->
          Vm.tick vm;
          let vargs = eval_args vm frame cargs in
          let id = Heap.alloc_object vm.Vm.heap ~cls ic.ic_template in
          let recv = Value.Ref id in
          ignore (Vm.call_filtered vm (Array.unsafe_get vm.Vm.meth_table idx) recv vargs);
          recv
      | None ->
        fun vm frame ->
          Vm.tick vm;
          let vargs = eval_args vm frame cargs in
          let id = Heap.alloc_object vm.Vm.heap ~cls ic.ic_template in
          let recv = Value.Ref id in
          (match Vm.lookup_method vm cls "init" with
           | Some meth ->
             (* an init added to this VM after instantiation *)
             ignore (Vm.call_filtered vm meth recv vargs)
           | None -> (
             match vargs with
             | [] -> ()
             | [ Value.Str m ] when ic.ic_is_exception ->
               Heap.set_field vm.Vm.heap id "message" (Value.Str m)
             | _ -> runtime_error pos "class %s has no init method" cls));
          recv))
  | Ast.Array_lit elems ->
    let cs = List.map (compile_expr cx) elems in
    fun vm frame ->
      Vm.tick vm;
      let values = eval_args vm frame cs in
      Value.Ref (Heap.alloc_array vm.Vm.heap (Array.of_list values))

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

and compile_stmt cx (st : Ast.stmt) : scode =
  let pos = st.Ast.spos in
  match st.Ast.s with
  | Ast.Var_decl (x, e) ->
    let ce = compile_expr cx e in
    let i = Hashtbl.find cx.cx_slots x in
    fun vm frame ->
      Vm.tick vm;
      let v = ce vm frame in
      Array.unsafe_set frame.slots i v
  | Ast.Assign (Ast.Lvar x, e) -> (
    let ce = compile_expr cx e in
    match Hashtbl.find_opt cx.cx_slots x with
    | Some i ->
      fun vm frame ->
        Vm.tick vm;
        (* the value is computed before the variable is resolved, as in
           the old interpreter (OCaml right-to-left application) *)
        let v = ce vm frame in
        if Array.unsafe_get frame.slots i == unbound then
          runtime_error pos "unknown variable %s" x
        else Array.unsafe_set frame.slots i v
    | None ->
      fun vm frame ->
        Vm.tick vm;
        let _ = ce vm frame in
        runtime_error pos "unknown variable %s" x)
  | Ast.Assign (Ast.Lfield (r, f), e) ->
    let cr = compile_expr cx r in
    let ce = compile_expr cx e in
    fun vm frame ->
      Vm.tick vm;
      let recv = cr vm frame in
      let v = ce vm frame in
      set_obj_field vm pos recv f v
  | Ast.Assign (Ast.Lindex (r, i), e) ->
    let cr = compile_expr cx r in
    let ci = compile_expr cx i in
    let ce = compile_expr cx e in
    fun vm frame ->
      Vm.tick vm;
      let recv = cr vm frame in
      let idx = ci vm frame in
      let v = ce vm frame in
      set_index vm pos recv idx v
  | Ast.Expr_stmt e ->
    let ce = compile_expr cx e in
    fun vm frame ->
      Vm.tick vm;
      ignore (ce vm frame)
  | Ast.If (c, t, f) ->
    let cc = compile_expr cx c in
    let ct = compile_block cx t in
    let cf = compile_block cx f in
    fun vm frame ->
      Vm.tick vm;
      if Value.truthy (cc vm frame) then ct vm frame else cf vm frame
  | Ast.While (c, body) ->
    let cc = compile_expr cx c in
    let cb = compile_block cx body in
    fun vm frame ->
      Vm.tick vm;
      (try
         while Value.truthy (cc vm frame) do
           try cb vm frame with Continue_loop -> ()
         done
       with Break_loop -> ())
  | Ast.For (init, cond, update, body) ->
    let ci = Option.map (compile_stmt cx) init in
    let cc = Option.map (compile_expr cx) cond in
    let cu = Option.map (compile_stmt cx) update in
    let cb = compile_block cx body in
    fun vm frame ->
      Vm.tick vm;
      (match ci with Some s -> s vm frame | None -> ());
      let continue_cond () =
        match cc with None -> true | Some c -> Value.truthy (c vm frame)
      in
      (try
         while continue_cond () do
           (try cb vm frame with Continue_loop -> ());
           match cu with Some s -> s vm frame | None -> ()
         done
       with Break_loop -> ())
  | Ast.Return None ->
    fun vm _ ->
      Vm.tick vm;
      raise (Return_value Value.Null)
  | Ast.Return (Some e) ->
    let ce = compile_expr cx e in
    fun vm frame ->
      Vm.tick vm;
      raise (Return_value (ce vm frame))
  | Ast.Throw e ->
    let ce = compile_expr cx e in
    let img = cx.cx_image in
    fun vm frame ->
      Vm.tick vm;
      (match ce vm frame with
       | Value.Ref id as obj -> (
         match Heap.class_of vm.Vm.heap id with
         | Some cls when is_exception_class img vm cls ->
           let message =
             match Heap.get_field vm.Vm.heap id "message" with
             | Some (Value.Str m) -> m
             | Some _ | None -> ""
           in
           raise (Vm.Mini_raise { Vm.exn_class = cls; message; exn_obj = obj })
         | Some cls -> runtime_error pos "throw of non-exception class %s" cls
         | None -> runtime_error pos "throw of an array")
       | v -> runtime_error pos "throw of %s" (Value.type_name v))
  | Ast.Try (body, catches, fin) ->
    let cb = compile_block cx body in
    let ccs =
      List.map
        (fun c ->
          (c.Ast.cc_class, Hashtbl.find cx.cx_slots c.Ast.cc_var,
           compile_block cx c.Ast.cc_body))
        catches
    in
    let cf = Option.map (compile_block cx) fin in
    let img = cx.cx_image in
    fun vm frame ->
      Vm.tick vm;
      let outcome =
        try
          cb vm frame;
          `Done
        with
        | Vm.Mini_raise exn_v -> `Raised exn_v
        | Return_value v -> `Returned v
        | (Break_loop | Continue_loop) as flow -> `Flow flow
      in
      let handled =
        match outcome with
        | `Raised exn_v -> (
          match
            List.find_opt (fun (hc, _, _) -> exn_matches img vm exn_v hc) ccs
          with
          | Some (_, slot, cbody) -> (
            frame.slots.(slot) <- exn_v.Vm.exn_obj;
            try
              cbody vm frame;
              `Done
            with
            | Vm.Mini_raise e -> `Raised e
            | Return_value v -> `Returned v
            | (Break_loop | Continue_loop) as flow -> `Flow flow)
          | None -> outcome)
        | `Done | `Returned _ | `Flow _ -> outcome
      in
      (* As in Java: the finally block runs last and, if it completes
         abruptly, its outcome supersedes the pending one. *)
      (match cf with Some b -> b vm frame | None -> ());
      (match handled with
       | `Done -> ()
       | `Raised e -> raise (Vm.Mini_raise e)
       | `Returned v -> raise (Return_value v)
       | `Flow f -> raise f)
  | Ast.Break ->
    fun vm _ ->
      Vm.tick vm;
      raise Break_loop
  | Ast.Continue ->
    fun vm _ ->
      Vm.tick vm;
      raise Continue_loop
  | Ast.Block b ->
    let cb = compile_block cx b in
    fun vm frame ->
      Vm.tick vm;
      cb vm frame

and compile_block cx (b : Ast.block) : scode =
  match b with
  | [] -> fun _ _ -> ()
  | [ s ] -> compile_stmt cx s
  | _ ->
    let arr = Array.of_list (List.map (compile_stmt cx) b) in
    let n = Array.length arr in
    fun vm frame ->
      for i = 0 to n - 1 do
        (Array.unsafe_get arr i) vm frame
      done

(* Tail compilation: a statement in tail position of a body produces
   the frame's result directly instead of raising [Return_value] — most
   method bodies end in a [return], and an OCaml raise/catch per call is
   far more expensive than returning a value.  Only positions where no
   code can run afterwards in the same frame qualify: the last statement
   of the body, and recursively the branches of a trailing [if] or
   [Block].  A [return] inside a loop or [try] (where [finally] may
   supersede it) still raises and is caught by [run_frame].  Tick
   placement is identical to the non-tail compilation. *)
let rec compile_tail_stmt cx (st : Ast.stmt) : ecode =
  match st.Ast.s with
  | Ast.Return None ->
    fun vm _ ->
      Vm.tick vm;
      Value.Null
  | Ast.Return (Some e) ->
    let ce = compile_expr cx e in
    fun vm frame ->
      Vm.tick vm;
      ce vm frame
  | Ast.If (c, t, f) ->
    let cc = compile_expr cx c in
    let ct = compile_tail_block cx t in
    let cf = compile_tail_block cx f in
    fun vm frame ->
      Vm.tick vm;
      if Value.truthy (cc vm frame) then ct vm frame else cf vm frame
  | Ast.Block b ->
    let cb = compile_tail_block cx b in
    fun vm frame ->
      Vm.tick vm;
      cb vm frame
  | _ ->
    let cs = compile_stmt cx st in
    fun vm frame ->
      cs vm frame;
      Value.Null

and compile_tail_block cx (b : Ast.block) : ecode =
  match b with
  | [] -> fun _ _ -> Value.Null
  | [ s ] -> compile_tail_stmt cx s
  | _ -> (
    match List.rev b with
    | last :: prefix_rev ->
      let prefix = compile_block cx (List.rev prefix_rev) in
      let tail = compile_tail_stmt cx last in
      fun vm frame ->
        prefix vm frame;
        tail vm frame
    | [] -> assert false)

(* ------------------------------------------------------------------ *)
(* Scope resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* One slot per distinct variable name in a body: parameters first,
   then every [var] declaration and every catch variable, in source
   order.  MiniLang scoping is function-level ([declare] overwrote by
   name), so name identity is exactly slot identity. *)
let build_slots params body =
  let slots = Hashtbl.create 16 in
  let n = ref 0 in
  let add x =
    if not (Hashtbl.mem slots x) then begin
      Hashtbl.add slots x !n;
      incr n
    end
  in
  let rec walk_stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Var_decl (x, _) -> add x
    | Ast.If (_, t, f) ->
      walk_block t;
      walk_block f
    | Ast.While (_, b) -> walk_block b
    | Ast.For (i, _, u, b) ->
      Option.iter walk_stmt i;
      Option.iter walk_stmt u;
      walk_block b
    | Ast.Try (b, catches, fin) ->
      walk_block b;
      List.iter
        (fun c ->
          add c.Ast.cc_var;
          walk_block c.Ast.cc_body)
        catches;
      Option.iter walk_block fin
    | Ast.Block b -> walk_block b
    | Ast.Assign _ | Ast.Expr_stmt _ | Ast.Return _ | Ast.Throw _ | Ast.Break
    | Ast.Continue -> ()
  and walk_block b = List.iter walk_stmt b in
  List.iter add params;
  walk_block body;
  (slots, !n)

(* ------------------------------------------------------------------ *)
(* Body entry points                                                   *)
(* ------------------------------------------------------------------ *)

(* Removal is by physical identity, not a blind head pop: under the
   thread scheduler the root list interleaves frames of several MiniLang
   threads, so this frame's entry need not be the head when it exits. *)
let pop_frame_roots vm roots =
  match vm.Vm.frame_roots with
  | r :: rest when r == roots -> vm.Vm.frame_roots <- rest
  | l -> vm.Vm.frame_roots <- List.filter (fun r -> r != roots) l

let run_frame vm frame (body : ecode) =
  let roots = frame_roots frame in
  vm.Vm.frame_roots <- roots :: vm.Vm.frame_roots;
  match body vm frame with
  | v ->
    pop_frame_roots vm roots;
    v
  | exception Return_value v ->
    pop_frame_roots vm roots;
    v
  | exception e ->
    pop_frame_roots vm roots;
    raise e

let compile_method_impl img defining_super cls_name (m : Ast.meth_decl) : Vm.impl =
  let slots, n_slots = build_slots m.Ast.m_params m.Ast.m_body in
  let cx = { cx_image = img; cx_slots = slots; cx_defining = Some (cls_name, defining_super) } in
  let body = compile_tail_block cx m.Ast.m_body in
  let n_params = List.length m.Ast.m_params in
  let param_slots = Array.of_list (List.map (Hashtbl.find slots) m.Ast.m_params) in
  let pos = m.Ast.m_pos in
  let name = m.Ast.m_name in
  fun vm this args ->
    let got = List.length args in
    if got <> n_params then
      runtime_error pos "method %s.%s expects %d argument(s), got %d" cls_name name
        n_params got;
    let frame = { slots = Array.make n_slots unbound; this } in
    List.iteri (fun i v -> frame.slots.(Array.unsafe_get param_slots i) <- v) args;
    run_frame vm frame body

let compile_function_impl img (f : Ast.func_decl) : Vm.t -> Value.t list -> Value.t =
  let slots, n_slots = build_slots f.Ast.f_params f.Ast.f_body in
  let cx = { cx_image = img; cx_slots = slots; cx_defining = None } in
  let body = compile_tail_block cx f.Ast.f_body in
  let n_params = List.length f.Ast.f_params in
  let param_slots = Array.of_list (List.map (Hashtbl.find slots) f.Ast.f_params) in
  fun vm args ->
    let frame = { slots = Array.make n_slots unbound; this = Value.Null } in
    (* call sites check arity; a direct mismatched application (e.g. a
       parameterised main) fails like the List.iter2 it replaces *)
    let rec fill i = function
      | [] -> if i <> n_params then invalid_arg "List.iter2"
      | v :: rest ->
        if i >= n_params then invalid_arg "List.iter2";
        frame.slots.(Array.unsafe_get param_slots i) <- v;
        fill (i + 1) rest
    in
    fill 0 args;
    run_frame vm frame body

(* ------------------------------------------------------------------ *)
(* Image construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Class skeleton used while laying the image out. *)
type skel = {
  sk_super : string option;
  sk_fields : string list;
  sk_own : (string * int) list; (* own methods, declaration order *)
  sk_user : bool;
}

let build_image (prog : Ast.program) : image =
  (* Pass 1: class skeletons and global method/function indices, so
     that bodies can reference classes and functions declared later. *)
  let skels : (string, skel) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (name, super) ->
      Hashtbl.replace skels name
        { sk_super = super; sk_fields = [ "message" ]; sk_own = []; sk_user = false })
    Vm.builtin_exception_classes;
  let order = ref [] (* user class names, first-declaration order *) in
  let meths = ref [] (* (class, decl) in index order, reversed *) in
  let n_meths = ref 0 in
  let funcs = ref [] (* func decls in index order, reversed *) in
  let n_funcs = ref 0 in
  let fn_index = Hashtbl.create 16 in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Class_decl c ->
        let own =
          List.map
            (fun m ->
              let idx = !n_meths in
              incr n_meths;
              meths := (c.Ast.c_name, m) :: !meths;
              (m.Ast.m_name, idx))
            c.Ast.c_methods
        in
        let prev_own =
          (* a redeclared class replaces fields and superclass but, as
             before, keeps accumulating methods into one class record *)
          match Hashtbl.find_opt skels c.Ast.c_name with
          | Some { sk_user = true; sk_own; _ } -> sk_own
          | _ ->
            order := c.Ast.c_name :: !order;
            []
        in
        Hashtbl.replace skels c.Ast.c_name
          { sk_super = c.Ast.c_super;
            sk_fields = c.Ast.c_fields;
            sk_own = prev_own @ own;
            sk_user = true }
      | Ast.Func_decl f ->
        let idx = !n_funcs in
        incr n_funcs;
        funcs := f :: !funcs;
        Hashtbl.replace fn_index f.Ast.f_name idx)
    prog;
  (* Resolution helpers over the skeletons.  The [seen] guards keep
     image construction terminating on (degenerate) inheritance cycles,
     which the old compiler only hit at run time. *)
  let rec all_fields seen name =
    if List.mem name seen then []
    else
      match Hashtbl.find_opt skels name with
      | None -> []
      | Some sk ->
        (match sk.sk_super with
         | None -> []
         | Some s -> all_fields (name :: seen) s)
        @ sk.sk_fields
  in
  let disp_cache : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let rec dispatch seen name =
    match Hashtbl.find_opt disp_cache name with
    | Some t -> t
    | None ->
      let t =
        if List.mem name seen then Hashtbl.create 4
        else
          match Hashtbl.find_opt skels name with
          | None -> Hashtbl.create 4
          | Some sk ->
            let base =
              match sk.sk_super with
              | Some s -> Hashtbl.copy (dispatch (name :: seen) s)
              | None -> Hashtbl.create 8
            in
            List.iter (fun (mname, idx) -> Hashtbl.replace base mname idx) sk.sk_own;
            base
      in
      Hashtbl.replace disp_cache name t;
      t
  in
  let rec is_exc seen name =
    String.equal name Vm.throwable
    || (not (List.mem name seen))
       && (match Hashtbl.find_opt skels name with
           | Some { sk_super = Some s; _ } -> is_exc (name :: seen) s
           | Some { sk_super = None; _ } | None -> false)
  in
  let classes = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name sk ->
      Hashtbl.replace classes name
        { ic_name = name;
          ic_super = sk.sk_super;
          ic_decl_fields = sk.sk_fields;
          ic_template = List.map (fun f -> (f, Value.Null)) (all_fields [] name);
          ic_dispatch = dispatch [] name;
          ic_is_exception = is_exc [] name;
          ic_user = sk.sk_user })
    skels;
  let meths_fwd = List.rev !meths in
  let img =
    { img_classes = classes;
      img_class_order =
        Array.of_list (List.rev_map (fun name -> Hashtbl.find classes name) !order);
      img_methods =
        Array.of_list
          (List.map
             (fun (cls, (m : Ast.meth_decl)) ->
               { im_class = cls;
                 im_name = m.Ast.m_name;
                 im_params = m.Ast.m_params;
                 im_throws = m.Ast.m_throws;
                 im_impl = (fun _ _ _ -> assert false) })
             meths_fwd);
      img_functions =
        Array.of_list
          (List.rev_map
             (fun (f : Ast.func_decl) ->
               { if_name = f.Ast.f_name;
                 if_params = f.Ast.f_params;
                 if_impl = (fun _ _ -> assert false) })
             !funcs);
      img_fn_index = fn_index }
  in
  (* Pass 2: compile every body against the finished layout. *)
  List.iteri
    (fun idx (cls, m) ->
      let super = (Hashtbl.find classes cls).ic_super in
      img.img_methods.(idx).im_impl <- compile_method_impl img super cls m)
    meths_fwd;
  List.iteri
    (fun idx f -> img.img_functions.(idx).if_impl <- compile_function_impl img f)
    (List.rev !funcs);
  img

let image (prog : Ast.program) : image =
  Obs.span "compile.image" (fun () -> build_image prog)

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

let instantiate_vm (img : image) : Vm.t =
  let vm = Vm.create () in
  Array.iter
    (fun ic ->
      ignore (Vm.add_class vm ?super:ic.ic_super ~fields:ic.ic_decl_fields ic.ic_name))
    img.img_class_order;
  let table =
    Array.map
      (fun im ->
        Vm.add_method vm im.im_class ~name:im.im_name ~params:im.im_params
          ~throws:im.im_throws im.im_impl)
      img.img_methods
  in
  vm.Vm.meth_table <- table;
  Array.iter
    (fun ifn ->
      Hashtbl.replace vm.Vm.functions ifn.if_name
        { Vm.fn_name = ifn.if_name; fn_params = ifn.if_params; fn_impl = ifn.if_impl })
    img.img_functions;
  vm

let instantiate (img : image) : Vm.t =
  Obs.span "compile.instantiate" (fun () -> instantiate_vm img)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

(* Static analyses (exception flow, pruning) read the image's finished
   layout instead of re-deriving hierarchy and dispatch from the AST:
   the flattened dispatch tables already encode inheritance, redeclared
   classes and the builtin exception hierarchy exactly as execution
   resolves them. *)

type class_summary = {
  cs_name : string;
  cs_super : string option;
  cs_fields : string list; (* full template layout, inherited first *)
  cs_is_exception : bool;
  cs_user : bool; (* declared by the program, not builtin *)
}

let summarize_class ic =
  { cs_name = ic.ic_name;
    cs_super = ic.ic_super;
    cs_fields = List.map fst ic.ic_template;
    cs_is_exception = ic.ic_is_exception;
    cs_user = ic.ic_user }

let image_classes img =
  let user = Array.to_list (Array.map summarize_class img.img_class_order) in
  let builtin =
    Hashtbl.fold
      (fun _ ic acc -> if ic.ic_user then acc else summarize_class ic :: acc)
      img.img_classes []
    |> List.sort (fun a b -> compare a.cs_name b.cs_name)
  in
  user @ builtin

let image_is_subclass = img_is_subclass

let dispatch_targets img mname =
  Hashtbl.fold
    (fun _ ic acc ->
      match Hashtbl.find_opt ic.ic_dispatch mname with
      | Some idx ->
        let cls = img.img_methods.(idx).im_class in
        if List.mem cls acc then acc else cls :: acc
      | None -> acc)
    img.img_classes []
  |> List.sort compare

let resolve_dispatch img cls mname =
  match resolve_method img cls mname with
  | Some idx -> Some img.img_methods.(idx).im_class
  | None -> None

let program (prog : Ast.program) : Vm.t = instantiate (image prog)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(* Run-boundary harvest: the interpreter's hot path counts in plain
   per-VM mutable fields ([steps], [calls], the inline-cache pair) and
   the heap's own totals; one run's worth is folded into the global
   registry here, so enabling metrics adds nothing to the per-step or
   per-call cost. *)
let m_runs = Obs.counter "vm.runs"
let m_steps = Obs.counter "vm.steps"
let m_calls = Obs.counter "vm.calls"
let m_ic_hits = Obs.counter "vm.inline_cache.hits"
let m_ic_misses = Obs.counter "vm.inline_cache.misses"
let m_allocations = Obs.counter "heap.allocations"
let m_barrier_hits = Obs.counter "heap.barrier_hits"
let h_live = Obs.histogram ~unit_:Obs.Items "heap.live_at_exit"
let m_preemptions = Obs.counter "sched.preemptions"
let m_switches = Obs.counter "sched.switches"
let m_contention = Obs.counter "sched.lock_contention"

let harvest vm =
  Obs.incr m_runs;
  Obs.add m_steps vm.Vm.steps;
  Obs.add m_calls vm.Vm.calls;
  Obs.add m_ic_hits vm.Vm.ic_hits;
  Obs.add m_ic_misses vm.Vm.ic_misses;
  Obs.add m_allocations (Heap.allocations vm.Vm.heap);
  Obs.add m_barrier_hits (Heap.barrier_hits vm.Vm.heap);
  Obs.add m_preemptions vm.Vm.sched_preemptions;
  Obs.add m_switches vm.Vm.sched_switches;
  Obs.add m_contention vm.Vm.sched_contention;
  Obs.observe h_live (Heap.live_count vm.Vm.heap)

(* Runs the program's [main] function; returns its value.  [main] is
   always MiniLang thread 0 under the scheduler, so the concurrency
   effects are handled even in sequential programs (which never perform
   them under [Coop], keeping the sequential path unchanged). *)
let run_main ?(policy = Sched.Coop) vm =
  match Hashtbl.find_opt vm.Vm.functions "main" with
  | None -> invalid_arg "program has no main function"
  | Some fn ->
    if not (Obs.enabled ()) then
      Sched.run vm ~policy (fun () -> fn.Vm.fn_impl vm [])
    else
      (* harvest even when a MiniLang exception escapes main — that is
         how most injection runs end *)
      Fun.protect
        ~finally:(fun () -> harvest vm)
        (fun () ->
          Obs.span "vm.run_main" (fun () ->
              Sched.run vm ~policy (fun () -> fn.Vm.fn_impl vm [])))
