type comparison = Lt | Le | Gt | Ge | Eq | Ne

let comparison_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "="
  | Ne -> "!="

let negate_comparison = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

let apply_comparison op c =
  match op with
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

type term = Attr of Attribute.t | Const of Value.t

type atom = { attr : Attribute.t; op : comparison; rhs : term }

type t = Atom of atom | And of t * t | Or of t * t | Not of t

let atom attr op rhs = Atom { attr; op; rhs }
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

let term_to_string = function
  | Attr a -> Attribute.to_string a
  | Const (Value.Str s) -> Printf.sprintf "%S" s
  | Const v -> Value.to_string v

let atom_to_string { attr; op; rhs } =
  Printf.sprintf "%s %s %s" (Attribute.to_string attr)
    (comparison_to_string op) (term_to_string rhs)

let rec to_string = function
  | Atom a -> atom_to_string a
  | And (x, y) -> Printf.sprintf "(%s && %s)" (to_string x) (to_string y)
  | Or (x, y) -> Printf.sprintf "(%s || %s)" (to_string x) (to_string y)
  | Not x -> Printf.sprintf "!%s" (to_string x)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tok_ident of string
  | Tok_int of int
  | Tok_money of int
  | Tok_str of string
  | Tok_op of comparison
  | Tok_and
  | Tok_or
  | Tok_not
  | Tok_lparen
  | Tok_rparen
  | Tok_comma

exception Parse_error of string

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit tok = tokens := tok :: !tokens in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let is_ident_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  while !pos < n do
    let c = input.[!pos] in
    (match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '(' ->
      emit Tok_lparen;
      incr pos
    | ')' ->
      emit Tok_rparen;
      incr pos
    | ',' ->
      emit Tok_comma;
      incr pos
    | '&' ->
      if !pos + 1 < n && input.[!pos + 1] = '&' then begin
        emit Tok_and;
        pos := !pos + 2
      end
      else raise (Parse_error "expected &&")
    | '|' ->
      if !pos + 1 < n && input.[!pos + 1] = '|' then begin
        emit Tok_or;
        pos := !pos + 2
      end
      else raise (Parse_error "expected ||")
    | '<' ->
      if !pos + 1 < n && input.[!pos + 1] = '=' then begin
        emit (Tok_op Le);
        pos := !pos + 2
      end
      else begin
        emit (Tok_op Lt);
        incr pos
      end
    | '>' ->
      if !pos + 1 < n && input.[!pos + 1] = '=' then begin
        emit (Tok_op Ge);
        pos := !pos + 2
      end
      else begin
        emit (Tok_op Gt);
        incr pos
      end
    | '=' ->
      emit (Tok_op Eq);
      incr pos
    | '!' ->
      if !pos + 1 < n && input.[!pos + 1] = '=' then begin
        emit (Tok_op Ne);
        pos := !pos + 2
      end
      else begin
        emit Tok_not;
        incr pos
      end
    | '"' ->
      let buf = Buffer.create 16 in
      incr pos;
      let rec scan () =
        match peek () with
        | None -> raise (Parse_error "unterminated string literal")
        | Some '"' -> incr pos
        | Some c ->
          Buffer.add_char buf c;
          incr pos;
          scan ()
      in
      scan ();
      emit (Tok_str (Buffer.contents buf))
    | '0' .. '9' | '-' ->
      let start = !pos in
      if c = '-' then incr pos;
      let seen_dot = ref false in
      let rec scan () =
        match peek () with
        | Some ('0' .. '9') ->
          incr pos;
          scan ()
        | Some '.' when not !seen_dot ->
          seen_dot := true;
          incr pos;
          scan ()
        | Some _ | None -> ()
      in
      scan ();
      let text = String.sub input start (!pos - start) in
      if text = "-" then raise (Parse_error "lone '-'")
      else if !seen_dot then begin
        match float_of_string_opt text with
        | Some f -> (
          match Value.money_of_float f with
          | Value.Money cents -> emit (Tok_money cents)
          | Value.Int _ | Value.Time _ | Value.Str _ -> assert false)
        | None -> raise (Parse_error ("bad number: " ^ text))
      end
      else begin
        match int_of_string_opt text with
        | Some i -> emit (Tok_int i)
        | None -> raise (Parse_error ("bad number: " ^ text))
      end
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = !pos in
      while (match peek () with Some c -> is_ident_char c | None -> false) do
        incr pos
      done;
      emit (Tok_ident (String.sub input start (!pos - start)))
    | _ -> raise (Parse_error (Printf.sprintf "unexpected character %C" c)));
  done;
  List.rev !tokens

(* Recursive descent over: or := and ('||' and)*, and := unary ('&&'
   unary)*, unary := '!' unary | '(' or ')' | atom. *)
let parse_tokens tokens =
  let stream = ref tokens in
  let peek () = match !stream with [] -> None | tok :: _ -> Some tok in
  let advance () =
    match !stream with
    | [] -> raise (Parse_error "unexpected end of input")
    | tok :: rest ->
      stream := rest;
      tok
  in
  let expect_rparen () =
    match advance () with
    | Tok_rparen -> ()
    | _ -> raise (Parse_error "expected ')'")
  in
  let parse_term () =
    match advance () with
    | Tok_ident name -> Attr (Attribute.of_string name)
    | Tok_int i -> Const (Value.Int i)
    | Tok_money cents -> Const (Value.Money cents)
    | Tok_str s -> Const (Value.Str s)
    | _ -> raise (Parse_error "expected attribute or constant")
  in
  let parse_const () =
    match parse_term () with
    | Const v -> v
    | Attr _ -> raise (Parse_error "expected a constant")
  in
  let parse_atom () =
    let attr =
      match advance () with
      | Tok_ident name -> Attribute.of_string name
      | _ -> raise (Parse_error "expected attribute name")
    in
    match peek () with
    | Some (Tok_ident "in") ->
      (* attr in (c1, c2, ...)  desugars to a disjunction of equalities *)
      ignore (advance ());
      (match advance () with
      | Tok_lparen -> ()
      | _ -> raise (Parse_error "expected '(' after in"));
      let rec constants acc =
        let c = parse_const () in
        match advance () with
        | Tok_rparen -> List.rev (c :: acc)
        | Tok_comma -> constants (c :: acc)
        | _ -> raise (Parse_error "expected ',' or ')' in value list")
      in
      (match constants [] with
      | [] -> raise (Parse_error "empty value list")
      | first :: rest ->
        List.fold_left
          (fun acc c -> Or (acc, Atom { attr; op = Eq; rhs = Const c }))
          (Atom { attr; op = Eq; rhs = Const first })
          rest)
    | Some (Tok_ident "between") ->
      (* attr between lo and hi  desugars to  attr >= lo && attr <= hi *)
      ignore (advance ());
      let lo = parse_const () in
      (match advance () with
      | Tok_ident "and" -> ()
      | _ -> raise (Parse_error "expected 'and' in between"));
      let hi = parse_const () in
      And
        ( Atom { attr; op = Ge; rhs = Const lo },
          Atom { attr; op = Le; rhs = Const hi } )
    | _ ->
      let op =
        match advance () with
        | Tok_op op -> op
        | _ -> raise (Parse_error "expected comparison operator")
      in
      Atom { attr; op; rhs = parse_term () }
  in
  let rec parse_or () =
    let left = parse_and () in
    match peek () with
    | Some Tok_or ->
      ignore (advance ());
      Or (left, parse_or ())
    | _ -> left
  and parse_and () =
    let left = parse_unary () in
    match peek () with
    | Some Tok_and ->
      ignore (advance ());
      And (left, parse_and ())
    | _ -> left
  and parse_unary () =
    match peek () with
    | Some Tok_not ->
      ignore (advance ());
      Not (parse_unary ())
    | Some Tok_lparen ->
      ignore (advance ());
      let inner = parse_or () in
      expect_rparen ();
      inner
    | _ -> parse_atom ()
  in
  let result = parse_or () in
  if !stream <> [] then raise (Parse_error "trailing tokens");
  result

let parse input =
  match parse_tokens (tokenize input) with
  | result -> Ok result
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

type clause = atom list
type normalized = clause list

(* Negation-normal form: ¬ folds into the comparison operators
   (¬(A < c) ≡ A ≥ c); double negations cancel; De Morgan on ∧/∨. *)
let rec nnf = function
  | Atom _ as a -> a
  | And (x, y) -> And (nnf x, nnf y)
  | Or (x, y) -> Or (nnf x, nnf y)
  | Not (Atom a) -> Atom { a with op = negate_comparison a.op }
  | Not (Not x) -> nnf x
  | Not (And (x, y)) -> Or (nnf (Not x), nnf (Not y))
  | Not (Or (x, y)) -> And (nnf (Not x), nnf (Not y))

(* CNF by distribution of ∨ over ∧. *)
let rec cnf = function
  | Atom a -> [ [ a ] ]
  | And (x, y) -> cnf x @ cnf y
  | Or (x, y) ->
    let cx = cnf x and cy = cnf y in
    List.concat_map (fun cla -> List.map (fun clb -> cla @ clb) cy) cx
  | Not _ -> assert false (* eliminated by nnf *)

let normalize t = cnf (nnf t)

let atom_count normalized =
  List.fold_left (fun acc clause -> acc + List.length clause) 0 normalized

let conjunct_count normalized = max 0 (List.length normalized - 1)

(* ------------------------------------------------------------------ *)
(* Reference evaluation                                                *)
(* ------------------------------------------------------------------ *)

let eval_atom ~lookup { attr; op; rhs } =
  match lookup attr with
  | None -> false
  | Some left -> (
    let right =
      match rhs with Const v -> Some v | Attr b -> lookup b
    in
    match right with
    | None -> false
    | Some right ->
      Value.comparable left right
      && apply_comparison op (Value.compare_semantic left right))

(* Evaluation goes through NNF so that ¬ means exactly what the
   normalizer says it means (operator flip); see the .mli note on
   records that lack an attribute. *)
let eval ~lookup t =
  let rec go = function
    | Atom a -> eval_atom ~lookup a
    | And (x, y) -> go x && go y
    | Or (x, y) -> go x || go y
    | Not _ -> assert false
  in
  go (nnf t)

let eval_normalized ~lookup normalized =
  List.for_all (List.exists (eval_atom ~lookup)) normalized

let eval_record record t = eval ~lookup:(Log_record.find record) t

let pp fmt t = Format.pp_print_string fmt (to_string t)

let pp_normalized fmt normalized =
  let clause_to_string clause =
    "(" ^ String.concat " || " (List.map atom_to_string clause) ^ ")"
  in
  Format.pp_print_string fmt
    (String.concat " && " (List.map clause_to_string normalized))
