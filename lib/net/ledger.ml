type sensitivity = Plaintext | Ciphertext | Blinded | Share | Aggregate | Metadata

let sensitivity_to_string = function
  | Plaintext -> "plaintext"
  | Ciphertext -> "ciphertext"
  | Blinded -> "blinded"
  | Share -> "share"
  | Aggregate -> "aggregate"
  | Metadata -> "metadata"

type payload =
  | Text : string -> payload
  | Batch : ('a -> string) * 'a list -> payload
  | Joined : ('a -> string) * 'a list -> payload

(* A [One] entry is the same three-field block the string-only ledger
   stored, so string observations cost no more than they used to.
   Batched and joined values are kept as an array beside their renderer
   and turned into strings only by the queries below. *)
type entry =
  | One of { sensitivity : sensitivity; tag : string; value : string }
  | Each : {
      sensitivity : sensitivity;
      tag : string;
      render : 'a -> string;
      values : 'a array;
    }
      -> entry
  | Join : {
      sensitivity : sensitivity;
      tag : string;
      render : 'a -> string;
      values : 'a array;
    }
      -> entry

(* Entries newest first; a node's cell is added once, so recording
   touches the map only on a node's first observation. *)
type node_log = { mutable entries : entry list }

type t = { mutable by_node : node_log Node_id.Map.t; mutable count : int }

let create () = { by_node = Node_id.Map.empty; count = 0 }

let join render values =
  String.concat "," (Array.to_list (Array.map render values))

let rendered = function
  | Text value -> [ value ]
  | Batch (render, values) -> List.map render values
  | Joined (render, values) -> [ join render (Array.of_list values) ]

let push t node entry n =
  let log =
    match Node_id.Map.find_opt node t.by_node with
    | Some log -> log
    | None ->
      let log = { entries = [] } in
      t.by_node <- Node_id.Map.add node log t.by_node;
      log
  in
  log.entries <- entry :: log.entries;
  t.count <- t.count + n

let record t ~node ~sensitivity ~tag = function
  | Text value -> push t node (One { sensitivity; tag; value }) 1
  | Batch (_, []) -> ()
  | Batch (render, values) ->
    let values = Array.of_list values in
    push t node
      (Each { sensitivity; tag; render; values })
      (Array.length values)
  | Joined (render, values) ->
    push t node
      (Join { sensitivity; tag; render; values = Array.of_list values })
      1

let entries t node =
  match Node_id.Map.find_opt node t.by_node with
  | None -> []
  | Some log -> log.entries

let observations t ~node =
  List.fold_left
    (fun acc entry ->
      match entry with
      | One { sensitivity; tag; value } -> (sensitivity, tag, value) :: acc
      | Each { sensitivity; tag; render; values } ->
        Array.fold_right
          (fun v acc -> (sensitivity, tag, render v) :: acc)
          values acc
      | Join { sensitivity; tag; render; values } ->
        (sensitivity, tag, join render values) :: acc)
    [] (entries t node)

(* Only entries already at the asked sensitivity are rendered. *)
let holds ~sensitivity value = function
  | One e -> e.sensitivity = sensitivity && String.equal e.value value
  | Each { sensitivity = s; render; values; _ } ->
    s = sensitivity
    && Array.exists (fun v -> String.equal (render v) value) values
  | Join { sensitivity = s; render; values; _ } ->
    s = sensitivity && String.equal (join render values) value

let saw t ~node ~sensitivity value =
  List.exists (holds ~sensitivity value) (entries t node)

let saw_plaintext t ~node value = saw t ~node ~sensitivity:Plaintext value

let nodes_that_saw t ~sensitivity value =
  Node_id.Map.fold
    (fun node log acc ->
      if List.exists (holds ~sensitivity value) log.entries then node :: acc
      else acc)
    t.by_node []
  |> List.rev

let plaintext_exposure t value = nodes_that_saw t ~sensitivity:Plaintext value

let size t = t.count
