type atom_home =
  | Local of Net.Node_id.t
  | Cross of { left : Net.Node_id.t; right : Net.Node_id.t }

type planned_atom = { atom : Query.atom; home : atom_home }

type planned_clause = {
  atoms : planned_atom list;
  clause_home : Net.Node_id.t;
  is_cross : bool;
}

type t = {
  clauses : planned_clause list;
  total_atoms : int;
  cross_atoms : int;
  conjuncts : int;
}

let home_of_attr fragmentation attr =
  match Fragmentation.home_of fragmentation attr with
  | Some node -> Ok node
  | None ->
    Error (Audit_error.Unknown_attribute { attr = Attribute.to_string attr })

let plan_atom fragmentation (atom : Query.atom) =
  match home_of_attr fragmentation atom.Query.attr with
  | Error _ as e -> e
  | Ok left -> (
    match atom.Query.rhs with
    | Query.Const _ -> Ok { atom; home = Local left }
    | Query.Attr b -> (
      match home_of_attr fragmentation b with
      | Error _ as e -> e
      | Ok right ->
        if Net.Node_id.equal left right then Ok { atom; home = Local left }
        else Ok { atom; home = Cross { left; right } }))

let plan fragmentation normalized =
  let rec plan_clauses acc = function
    | [] -> Ok (List.rev acc)
    | clause :: rest -> (
      let rec plan_atoms atoms_acc = function
        | [] -> Ok (List.rev atoms_acc)
        | atom :: atoms -> (
          match plan_atom fragmentation atom with
          | Ok planned -> plan_atoms (planned :: atoms_acc) atoms
          | Error _ as e -> e)
      in
      match plan_atoms [] clause with
      | Error _ as e -> e
      | Ok atoms ->
        let nodes_involved =
          List.fold_left
            (fun acc { home; _ } ->
              match home with
              | Local n -> Net.Node_id.Set.add n acc
              | Cross { left; right } ->
                Net.Node_id.Set.add left (Net.Node_id.Set.add right acc))
            Net.Node_id.Set.empty atoms
        in
        let clause_home =
          match atoms with
          | { home = Local n; _ } :: _ -> n
          | { home = Cross { left; _ }; _ } :: _ -> left
          | [] -> invalid_arg "Planner.plan: empty clause"
        in
        let is_cross = Net.Node_id.Set.cardinal nodes_involved > 1 in
        plan_clauses ({ atoms; clause_home; is_cross } :: acc) rest)
  in
  match plan_clauses [] normalized with
  | Error _ as e -> e
  | Ok clauses ->
    let total_atoms =
      List.fold_left (fun acc c -> acc + List.length c.atoms) 0 clauses
    in
    let cross_atoms =
      List.fold_left
        (fun acc c ->
          acc
          + List.length
              (List.filter
                 (fun { home; _ } ->
                   match home with Cross _ -> true | Local _ -> false)
                 c.atoms))
        0 clauses
    in
    Ok
      {
        clauses;
        total_atoms;
        cross_atoms;
        conjuncts = max 0 (List.length clauses - 1);
      }

(* Canonical order, not first-appearance order: reordering the clauses
   of a query (or batching queries whose clauses interleave differently)
   must not change the reported home set. *)
let homes t =
  List.sort_uniq Net.Node_id.compare
    (List.map (fun clause -> clause.clause_home) t.clauses)

(* ------------------------------------------------------------------ *)
(* Canonical predicate keys                                            *)
(* ------------------------------------------------------------------ *)

(* Fields are written length-first ("<length>:<bytes>"), so no byte a
   field holds (a string literal may hold any) reads as a separator;
   with [Value.to_wire] injective across kinds, the keys are too. *)
let length_prefixed fields =
  String.concat ""
    (List.map (fun f -> string_of_int (String.length f) ^ ":" ^ f) fields)

let atom_key (atom : Query.atom) =
  let rhs =
    match atom.Query.rhs with
    | Query.Attr b -> "A" ^ Attribute.to_string b
    | Query.Const v -> "C" ^ Value.to_wire v
  in
  length_prefixed
    [ Attribute.to_string atom.Query.attr;
      Query.comparison_to_string atom.Query.op; rhs
    ]

(* A clause is a disjunction: atom order is semantically irrelevant, so
   the key sorts atom keys first. *)
let clause_key (clause : Query.clause) =
  length_prefixed (List.sort compare (List.map atom_key clause))

let planned_clause_key (clause : planned_clause) =
  clause_key (List.map (fun { atom; _ } -> atom) clause.atoms)

(* ------------------------------------------------------------------ *)
(* Clause resources                                                    *)
(* ------------------------------------------------------------------ *)

(* The storage nodes one clause evaluation occupies: its assembly home
   plus every atom's fragment home(s).  TTP comparison services are
   deliberately absent: a blind comparison is stateless per atom, so
   two clauses never serialize against each other at the TTP — the
   pipeline's depth cap is what models how many comparisons the
   TTP tier can absorb concurrently. *)
let clause_resources (clause : planned_clause) =
  let add acc n = Net.Node_id.Set.add n acc in
  List.fold_left
    (fun acc { home; _ } ->
      match home with
      | Local n -> add acc n
      | Cross { left; right } -> add (add acc left) right)
    (add Net.Node_id.Set.empty clause.clause_home)
    clause.atoms
  |> Net.Node_id.Set.elements

(* ------------------------------------------------------------------ *)
(* Multi-query planning                                                *)
(* ------------------------------------------------------------------ *)

type multi = {
  plans : t list;
  unique_atoms : int;
  unique_clauses : int;
  dedup_atoms : int;
  dedup_clauses : int;
}

let plan_many fragmentation normalized_list =
  let rec plan_all acc = function
    | [] -> Ok (List.rev acc)
    | normalized :: rest -> (
      match plan fragmentation normalized with
      | Ok p -> plan_all (p :: acc) rest
      | Error _ as e -> e)
  in
  match plan_all [] normalized_list with
  | Error _ as e -> e
  | Ok plans ->
    let atom_keys = Hashtbl.create 32 and clause_keys = Hashtbl.create 16 in
    let atom_occurrences = ref 0 and clause_occurrences = ref 0 in
    List.iter
      (fun plan ->
        List.iter
          (fun clause ->
            incr clause_occurrences;
            let bare = List.map (fun { atom; _ } -> atom) clause.atoms in
            Hashtbl.replace clause_keys (clause_key bare) ();
            List.iter
              (fun atom ->
                incr atom_occurrences;
                Hashtbl.replace atom_keys (atom_key atom) ())
              bare)
          plan.clauses)
      plans;
    let unique_atoms = Hashtbl.length atom_keys in
    let unique_clauses = Hashtbl.length clause_keys in
    Ok
      {
        plans;
        unique_atoms;
        unique_clauses;
        dedup_atoms = !atom_occurrences - unique_atoms;
        dedup_clauses = !clause_occurrences - unique_clauses;
      }
