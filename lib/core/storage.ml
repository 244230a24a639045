open Numtheory

type hint = {
  hint_target : Net.Node_id.t;
  hint_glsn : Glsn.t;
  hint_blob : string;
  hint_digest : Bignum.t;
  hint_witness : Bignum.t;
  hint_ticket : string;
}

(* One attribute's cells, glsn-ascending: [glsns.(i)] holds
   [values.(i)] for [i < len].  The arrays grow by doubling. *)
type column = {
  mutable glsns : Glsn.t array;
  mutable values : Value.t array;
  mutable len : int;
}

type t = {
  supported : Attribute.Set.t;
  mutable rows : Glsn.t array;  (* every stored glsn, ascending *)
  mutable row_count : int;  (* of [rows] in use *)
  mutable columns : column Attribute.Map.t;
  mutable digests : Bignum.t Glsn.Map.t;
  mutable witnesses : Bignum.t Glsn.Map.t;
  mutable replicas : (string * string) list Glsn.Map.t;
      (* glsn -> (owner name, encrypted blob) *)
  mutable hints : hint list;  (* newest first *)
  acl : Access_control.t;
}

(* Where [glsn] is or would go among the first [len] entries of the
   ascending [a]: the index of the first entry not below it.  Glsns are
   allocated in ascending order, so the newest entry is tried first and
   an append costs one comparison. *)
let search a len glsn =
  if len = 0 || Glsn.compare a.(len - 1) glsn < 0 then len
  else
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) lsr 1 in
        if Glsn.compare a.(mid) glsn < 0 then go (mid + 1) hi else go lo mid
    in
    go 0 (len - 1)

let found a len i glsn = i < len && Glsn.equal a.(i) glsn

(* [a], its first [len] entries in use, with [x] inserted at [i]:
   a new array when [a] is full.  The new array is filled with [a]'s
   oldest entry rather than [x]: a large [Array.make] of a young value
   forces a minor collection first. *)
let insert_at a len i x =
  let a =
    if len < Array.length a then a
    else begin
      let grown = Array.make (max 8 (2 * len)) (if len = 0 then x else a.(0)) in
      Array.blit a 0 grown 0 len;
      grown
    end
  in
  if i < len then Array.blit a i a (i + 1) (len - i);
  a.(i) <- x;
  a

let delete_at a len i = Array.blit a (i + 1) a i (len - i - 1)

let empty_column () = { glsns = [||]; values = [||]; len = 0 }

let column_set col glsn value =
  let i = search col.glsns col.len glsn in
  if found col.glsns col.len i glsn then col.values.(i) <- value
  else begin
    col.glsns <- insert_at col.glsns col.len i glsn;
    col.values <- insert_at col.values col.len i value;
    col.len <- col.len + 1
  end

let column_delete col glsn =
  let i = search col.glsns col.len glsn in
  if found col.glsns col.len i glsn then begin
    delete_at col.glsns col.len i;
    delete_at col.values col.len i;
    col.len <- col.len - 1
  end

let create ~supported =
  {
    supported;
    rows = [||];
    row_count = 0;
    columns =
      Attribute.Set.fold
        (fun attr acc -> Attribute.Map.add attr (empty_column ()) acc)
        supported Attribute.Map.empty;
    digests = Glsn.Map.empty;
    witnesses = Glsn.Map.empty;
    replicas = Glsn.Map.empty;
    hints = [];
    acl = Access_control.create ();
  }

let supported t = t.supported

let has_row t glsn =
  found t.rows t.row_count (search t.rows t.row_count glsn) glsn

(* The column of [attr], made on first use: a tamper may plant an
   attribute the node does not support. *)
let column_for t attr =
  match Attribute.Map.find_opt attr t.columns with
  | Some col -> col
  | None ->
    let col = empty_column () in
    t.columns <- Attribute.Map.add attr col t.columns;
    col

(* Drop [glsn]'s row and its cells; whether it was stored. *)
let delete_row t glsn =
  let i = search t.rows t.row_count glsn in
  if not (found t.rows t.row_count i glsn) then false
  else begin
    delete_at t.rows t.row_count i;
    t.row_count <- t.row_count - 1;
    Attribute.Map.iter (fun _ col -> column_delete col glsn) t.columns;
    true
  end

let store t ~glsn ~fragment =
  let rec check = function
    | [] -> ()
    | (attr, _) :: rest ->
      if not (Attribute.Set.mem attr t.supported) then
        invalid_arg "Storage.store: unsupported attribute in fragment";
      if List.exists (fun (a, _) -> Attribute.equal a attr) rest then
        invalid_arg "Storage.store: duplicate attribute in fragment";
      check rest
  in
  check fragment;
  let i = search t.rows t.row_count glsn in
  if found t.rows t.row_count i glsn then
    invalid_arg "Storage.store: glsn already stored";
  t.rows <- insert_at t.rows t.row_count i glsn;
  t.row_count <- t.row_count + 1;
  List.iter (fun (attr, value) -> column_set (column_for t attr) glsn value)
    fragment

let store_digest t ~glsn digest =
  t.digests <- Glsn.Map.add glsn digest t.digests

let store_witness t ~glsn witness =
  t.witnesses <- Glsn.Map.add glsn witness t.witnesses

let remove t ~glsn =
  let present = delete_row t glsn || Glsn.Map.mem glsn t.digests in
  t.digests <- Glsn.Map.remove glsn t.digests;
  t.witnesses <- Glsn.Map.remove glsn t.witnesses;
  present

let cell col glsn =
  let i = search col.glsns col.len glsn in
  if found col.glsns col.len i glsn then Some col.values.(i) else None

let fragment_of t glsn =
  if not (has_row t glsn) then None
  else
    Some
      (Seq.fold_left
         (fun acc (attr, col) ->
           match cell col glsn with
           | Some value -> (attr, value) :: acc
           | None -> acc)
         []
         (Attribute.Map.to_rev_seq t.columns))

let digest_of t glsn = Glsn.Map.find_opt glsn t.digests
let witness_of t glsn = Glsn.Map.find_opt glsn t.witnesses
let glsns t = List.init t.row_count (fun i -> t.rows.(i))
let record_count t = t.row_count

let fold_column t attr f init =
  match Attribute.Map.find_opt attr t.columns with
  | None -> init
  | Some col ->
    let acc = ref init in
    for i = 0 to col.len - 1 do
      acc := f !acc col.glsns.(i) col.values.(i)
    done;
    !acc

let fold_column_pair t a b f init =
  match (Attribute.Map.find_opt a t.columns, Attribute.Map.find_opt b t.columns)
  with
  | None, _ | _, None -> init
  | Some ca, Some cb ->
    let rec go i j acc =
      if i >= ca.len || j >= cb.len then acc
      else
        let c = Glsn.compare ca.glsns.(i) cb.glsns.(j) in
        if c < 0 then go (i + 1) j acc
        else if c > 0 then go i (j + 1) acc
        else
          go (i + 1) (j + 1) (f acc ca.glsns.(i) ca.values.(i) cb.values.(j))
    in
    go 0 0 init

let acl t = t.acl

let store_replica t ~owner ~glsn ~blob =
  let owner = Net.Node_id.to_string owner in
  let existing = Option.value ~default:[] (Glsn.Map.find_opt glsn t.replicas) in
  let existing = List.remove_assoc owner existing in
  t.replicas <- Glsn.Map.add glsn ((owner, blob) :: existing) t.replicas

let replica_of t ~owner glsn =
  match Glsn.Map.find_opt glsn t.replicas with
  | None -> None
  | Some blobs -> List.assoc_opt (Net.Node_id.to_string owner) blobs

let park_hint t hint = t.hints <- hint :: t.hints

let hints t = List.rev t.hints

let hint_count t = List.length t.hints

let take_hints_for t ~target =
  let mine, rest =
    List.partition (fun h -> Net.Node_id.equal h.hint_target target) t.hints
  in
  t.hints <- rest;
  List.rev mine

let drop_hints t ~glsn =
  t.hints <- List.filter (fun h -> not (Glsn.equal h.hint_glsn glsn)) t.hints

let tamper_set t ~glsn ~attr value =
  if not (has_row t glsn) then false
  else begin
    column_set (column_for t attr) glsn value;
    true
  end

let tamper_delete t ~glsn = delete_row t glsn
