(* Recursive-descent parser for MiniLang. *)

exception Parse_error of string * Ast.pos

type state = {
  tokens : (Lexer.token * Ast.pos) array;
  mutable cursor : int;
  mutable sync_count : int;
      (* fresh names for the lock temporaries of desugared
         [synchronized] blocks, unique per compilation unit *)
}

let make tokens = { tokens = Array.of_list tokens; cursor = 0; sync_count = 0 }
let current st = st.tokens.(st.cursor)
let peek_tok st = fst (current st)
let peek_pos st = snd (current st)

let advance st = if st.cursor < Array.length st.tokens - 1 then st.cursor <- st.cursor + 1

let error st msg = raise (Parse_error (msg, peek_pos st))

let expect st tok =
  if peek_tok st = tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_name tok)
         (Lexer.token_name (peek_tok st)))

let expect_ident st =
  match peek_tok st with
  | Lexer.IDENT name ->
    advance st;
    name
  | tok -> error st (Printf.sprintf "expected identifier, found %s" (Lexer.token_name tok))

let accept st tok =
  if peek_tok st = tok then begin
    advance st;
    true
  end
  else false

(* ---------------- expressions ---------------- *)

let binop_of_token = function
  | Lexer.PLUS -> Some Ast.Add
  | Lexer.MINUS -> Some Ast.Sub
  | Lexer.STAR -> Some Ast.Mul
  | Lexer.SLASH -> Some Ast.Div
  | Lexer.PERCENT -> Some Ast.Mod
  | Lexer.EQEQ -> Some Ast.Eq
  | Lexer.NEQ -> Some Ast.Neq
  | Lexer.LT -> Some Ast.Lt
  | Lexer.LE -> Some Ast.Le
  | Lexer.GT -> Some Ast.Gt
  | Lexer.GE -> Some Ast.Ge
  | _ -> None

(* Binding powers; higher binds tighter. *)
let precedence = function
  | Ast.Mul | Ast.Div | Ast.Mod -> 60
  | Ast.Add | Ast.Sub -> 50
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 40
  | Ast.Eq | Ast.Neq -> 30

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept st Lexer.OROR then
    let rhs = parse_or st in
    { Ast.e = Ast.Or (lhs, rhs); epos = lhs.Ast.epos }
  else lhs

and parse_and st =
  let lhs = parse_binary st 0 in
  if accept st Lexer.ANDAND then
    let rhs = parse_and st in
    { Ast.e = Ast.And (lhs, rhs); epos = lhs.Ast.epos }
  else lhs

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (peek_tok st) with
    | Some op when precedence op >= min_prec ->
      advance st;
      let rhs = parse_binary st (precedence op + 1) in
      loop { Ast.e = Ast.Binary (op, lhs, rhs); epos = lhs.Ast.epos }
    | Some _ | None -> lhs
  in
  loop lhs

and parse_unary st =
  let p = peek_pos st in
  match peek_tok st with
  | Lexer.MINUS ->
    advance st;
    { Ast.e = Ast.Unary (Ast.Neg, parse_unary st); epos = p }
  | Lexer.BANG ->
    advance st;
    { Ast.e = Ast.Unary (Ast.Not, parse_unary st); epos = p }
  | _ -> parse_postfix st

and parse_postfix st =
  let base = parse_primary st in
  let rec loop e =
    match peek_tok st with
    | Lexer.DOT ->
      advance st;
      let name = expect_ident st in
      if peek_tok st = Lexer.LPAREN then begin
        let args = parse_args st in
        loop { Ast.e = Ast.Call (e, name, args); epos = e.Ast.epos }
      end
      else loop { Ast.e = Ast.Field (e, name); epos = e.Ast.epos }
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET;
      loop { Ast.e = Ast.Index (e, idx); epos = e.Ast.epos }
    | _ -> e
  in
  loop base

and parse_args st =
  expect st Lexer.LPAREN;
  if accept st Lexer.RPAREN then []
  else
    let rec go acc =
      let e = parse_expr st in
      if accept st Lexer.COMMA then go (e :: acc)
      else begin
        expect st Lexer.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []

and parse_primary st =
  let p = peek_pos st in
  match peek_tok st with
  | Lexer.INT n ->
    advance st;
    { Ast.e = Ast.Int_lit n; epos = p }
  | Lexer.STRING s ->
    advance st;
    { Ast.e = Ast.Str_lit s; epos = p }
  | Lexer.KW_TRUE ->
    advance st;
    { Ast.e = Ast.Bool_lit true; epos = p }
  | Lexer.KW_FALSE ->
    advance st;
    { Ast.e = Ast.Bool_lit false; epos = p }
  | Lexer.KW_NULL ->
    advance st;
    { Ast.e = Ast.Null_lit; epos = p }
  | Lexer.KW_THIS ->
    advance st;
    { Ast.e = Ast.This; epos = p }
  | Lexer.KW_SUPER ->
    advance st;
    expect st Lexer.DOT;
    let name = expect_ident st in
    let args = parse_args st in
    { Ast.e = Ast.Super_call (name, args); epos = p }
  | Lexer.KW_NEW ->
    advance st;
    let cls = expect_ident st in
    let args = parse_args st in
    { Ast.e = Ast.New (cls, args); epos = p }
  | Lexer.LBRACKET ->
    advance st;
    if accept st Lexer.RBRACKET then { Ast.e = Ast.Array_lit []; epos = p }
    else
      let rec go acc =
        let e = parse_expr st in
        if accept st Lexer.COMMA then go (e :: acc)
        else begin
          expect st Lexer.RBRACKET;
          List.rev (e :: acc)
        end
      in
      { Ast.e = Ast.Array_lit (go []); epos = p }
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name ->
    advance st;
    if peek_tok st = Lexer.LPAREN then
      let args = parse_args st in
      { Ast.e = Ast.Fn_call (name, args); epos = p }
    else { Ast.e = Ast.Var name; epos = p }
  | Lexer.KW_SPAWN -> (
    (* [spawn recv.m(args)] evaluates to the new thread's id.  Threads
       are desugared right here into the reflective __spawn hook, so
       nothing downstream of the parser (the compiler, analyses, weavers)
       knows about concurrency syntax. *)
    advance st;
    let call = parse_postfix st in
    match call.Ast.e with
    | Ast.Call (recv, m, args) ->
      { Ast.e =
          Ast.Fn_call
            ("__spawn",
             [ recv;
               { Ast.e = Ast.Str_lit m; epos = p };
               { Ast.e = Ast.Array_lit args; epos = p } ]);
        epos = p }
    | _ -> raise (Parse_error ("spawn requires a method call: spawn recv.m(...)", p)))
  | tok -> error st (Printf.sprintf "expected expression, found %s" (Lexer.token_name tok))

(* ---------------- statements ---------------- *)

let lvalue_of_expr st (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Var x -> Ast.Lvar x
  | Ast.Field (r, f) -> Ast.Lfield (r, f)
  | Ast.Index (r, i) -> Ast.Lindex (r, i)
  | _ -> error st "invalid assignment target"

let rec parse_stmt st =
  let p = peek_pos st in
  match peek_tok st with
  | Lexer.KW_VAR ->
    advance st;
    let name = expect_ident st in
    expect st Lexer.EQ;
    let e = parse_expr st in
    expect st Lexer.SEMI;
    { Ast.s = Ast.Var_decl (name, e); spos = p }
  | Lexer.KW_IF -> parse_if st
  | Lexer.KW_WHILE ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr st in
    expect st Lexer.RPAREN;
    let body = parse_block st in
    { Ast.s = Ast.While (cond, body); spos = p }
  | Lexer.KW_FOR ->
    advance st;
    expect st Lexer.LPAREN;
    let init =
      if peek_tok st = Lexer.SEMI then begin
        advance st;
        None
      end
      else Some (parse_simple_stmt st ~semi:true)
    in
    let cond =
      if peek_tok st = Lexer.SEMI then None else Some (parse_expr st)
    in
    expect st Lexer.SEMI;
    let update =
      if peek_tok st = Lexer.RPAREN then None
      else Some (parse_simple_stmt st ~semi:false)
    in
    expect st Lexer.RPAREN;
    let body = parse_block st in
    { Ast.s = Ast.For (init, cond, update, body); spos = p }
  | Lexer.KW_RETURN ->
    advance st;
    if accept st Lexer.SEMI then { Ast.s = Ast.Return None; spos = p }
    else
      let e = parse_expr st in
      expect st Lexer.SEMI;
      { Ast.s = Ast.Return (Some e); spos = p }
  | Lexer.KW_THROW ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.SEMI;
    { Ast.s = Ast.Throw e; spos = p }
  | Lexer.KW_TRY ->
    advance st;
    let body = parse_block st in
    let rec catches acc =
      if peek_tok st = Lexer.KW_CATCH then begin
        advance st;
        expect st Lexer.LPAREN;
        let cls = expect_ident st in
        let var = expect_ident st in
        expect st Lexer.RPAREN;
        let handler = parse_block st in
        catches ({ Ast.cc_class = cls; cc_var = var; cc_body = handler } :: acc)
      end
      else List.rev acc
    in
    let handlers = catches [] in
    let fin = if accept st Lexer.KW_FINALLY then Some (parse_block st) else None in
    if handlers = [] && fin = None then
      error st "try statement requires at least one catch or finally clause"
    else { Ast.s = Ast.Try (body, handlers, fin); spos = p }
  | Lexer.KW_SYNCHRONIZED ->
    (* [synchronized (e) { body }] desugars to
         { var __syncN = e;
           __monitor_enter(__syncN);
           try { body } finally { __monitor_exit(__syncN); } }
       so the lock expression is evaluated once and release is
       exception-safe.  The temp is unique per compilation unit because
       MiniLang slots are per-name per body: nested synchronized blocks
       sharing one name would clobber the outer lock temp. *)
    advance st;
    expect st Lexer.LPAREN;
    let lock = parse_expr st in
    expect st Lexer.RPAREN;
    let body = parse_block st in
    let tmp = "__sync" ^ string_of_int st.sync_count in
    st.sync_count <- st.sync_count + 1;
    let tmp_var = { Ast.e = Ast.Var tmp; epos = p } in
    let hook name =
      { Ast.s = Ast.Expr_stmt { Ast.e = Ast.Fn_call (name, [ tmp_var ]); epos = p };
        spos = p }
    in
    { Ast.s =
        Ast.Block
          [ { Ast.s = Ast.Var_decl (tmp, lock); spos = p };
            hook "__monitor_enter";
            { Ast.s = Ast.Try (body, [], Some [ hook "__monitor_exit" ]); spos = p } ];
      spos = p }
  | Lexer.KW_BREAK ->
    advance st;
    expect st Lexer.SEMI;
    { Ast.s = Ast.Break; spos = p }
  | Lexer.KW_CONTINUE ->
    advance st;
    expect st Lexer.SEMI;
    { Ast.s = Ast.Continue; spos = p }
  | Lexer.LBRACE -> { Ast.s = Ast.Block (parse_block st); spos = p }
  | _ -> parse_simple_stmt st ~semi:true

(* An assignment or expression statement; [semi] controls whether the
   trailing ';' is consumed (omitted in 'for' headers). *)
and parse_simple_stmt st ~semi =
  let p = peek_pos st in
  match peek_tok st with
  | Lexer.KW_VAR ->
    (* for-loop initializer: var i = 0 *)
    advance st;
    let name = expect_ident st in
    expect st Lexer.EQ;
    let e = parse_expr st in
    if semi then expect st Lexer.SEMI;
    { Ast.s = Ast.Var_decl (name, e); spos = p }
  | _ ->
    let e = parse_expr st in
    let stmt =
      if peek_tok st = Lexer.EQ then begin
        advance st;
        let rhs = parse_expr st in
        { Ast.s = Ast.Assign (lvalue_of_expr st e, rhs); spos = p }
      end
      else { Ast.s = Ast.Expr_stmt e; spos = p }
    in
    if semi then expect st Lexer.SEMI;
    stmt

and parse_if st =
  let p = peek_pos st in
  expect st Lexer.KW_IF;
  expect st Lexer.LPAREN;
  let cond = parse_expr st in
  expect st Lexer.RPAREN;
  let then_b = parse_block st in
  let else_b =
    if accept st Lexer.KW_ELSE then
      if peek_tok st = Lexer.KW_IF then [ parse_if st ] else parse_block st
    else []
  in
  { Ast.s = Ast.If (cond, then_b, else_b); spos = p }

and parse_block st =
  expect st Lexer.LBRACE;
  let rec go acc =
    if accept st Lexer.RBRACE then List.rev acc else go (parse_stmt st :: acc)
  in
  go []

(* ---------------- declarations ---------------- *)

let parse_params st =
  expect st Lexer.LPAREN;
  if accept st Lexer.RPAREN then []
  else
    let rec go acc =
      let name = expect_ident st in
      if accept st Lexer.COMMA then go (name :: acc)
      else begin
        expect st Lexer.RPAREN;
        List.rev (name :: acc)
      end
    in
    go []

let parse_throws st =
  if accept st Lexer.KW_THROWS then
    let rec go acc =
      let name = expect_ident st in
      if accept st Lexer.COMMA then go (name :: acc) else List.rev (name :: acc)
    in
    go []
  else []

let parse_method st =
  let p = peek_pos st in
  expect st Lexer.KW_METHOD;
  let name = expect_ident st in
  let params = parse_params st in
  let throws = parse_throws st in
  let body = parse_block st in
  { Ast.m_name = name; m_params = params; m_throws = throws; m_body = body; m_pos = p }

let parse_class st =
  let p = peek_pos st in
  expect st Lexer.KW_CLASS;
  let name = expect_ident st in
  let super = if accept st Lexer.KW_EXTENDS then Some (expect_ident st) else None in
  expect st Lexer.LBRACE;
  let rec members fields methods =
    match peek_tok st with
    | Lexer.KW_FIELD ->
      advance st;
      let fname = expect_ident st in
      expect st Lexer.SEMI;
      members (fname :: fields) methods
    | Lexer.KW_METHOD -> members fields (parse_method st :: methods)
    | Lexer.RBRACE ->
      advance st;
      (List.rev fields, List.rev methods)
    | tok ->
      error st
        (Printf.sprintf "expected 'field', 'method' or '}', found %s"
           (Lexer.token_name tok))
  in
  let fields, methods = members [] [] in
  { Ast.c_name = name;
    c_super = super;
    c_fields = fields;
    c_methods = methods;
    c_pos = p }

let parse_function st =
  let p = peek_pos st in
  expect st Lexer.KW_FUNCTION;
  let name = expect_ident st in
  let params = parse_params st in
  let body = parse_block st in
  { Ast.f_name = name; f_params = params; f_body = body; f_pos = p }

let parse_program st =
  let rec go acc =
    match peek_tok st with
    | Lexer.EOF -> List.rev acc
    | Lexer.KW_CLASS -> go (Ast.Class_decl (parse_class st) :: acc)
    | Lexer.KW_FUNCTION -> go (Ast.Func_decl (parse_function st) :: acc)
    | tok ->
      error st
        (Printf.sprintf "expected 'class' or 'function' at top level, found %s"
           (Lexer.token_name tok))
  in
  go []

(* Parses a full MiniLang compilation unit. *)
let program_of_string src = parse_program (make (Lexer.tokenize src))

(* Parses a single expression (used by tests and the REPL-ish demos). *)
let expr_of_string src =
  let st = make (Lexer.tokenize src) in
  let e = parse_expr st in
  expect st Lexer.EOF;
  e
