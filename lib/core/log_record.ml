type t = {
  glsn : Glsn.t;
  origin : Net.Node_id.t;
  attrs : Value.t Attribute.Map.t;
}

let make ~glsn ~origin ~attributes =
  if attributes = [] then invalid_arg "Log_record.make: no attributes";
  let attrs =
    List.fold_left
      (fun acc (attr, value) ->
        if Attribute.Map.mem attr acc then
          invalid_arg "Log_record.make: duplicate attribute"
        else Attribute.Map.add attr value acc)
      Attribute.Map.empty attributes
  in
  { glsn; origin; attrs }

let glsn t = t.glsn
let origin t = t.origin
let attributes t = Attribute.Map.bindings t.attrs

let attribute_set t =
  Attribute.Map.fold (fun a _ acc -> Attribute.Set.add a acc) t.attrs
    Attribute.Set.empty

let find t attr = Attribute.Map.find_opt attr t.attrs
let width t = Attribute.Map.cardinal t.attrs

let undefined_count t =
  Attribute.Map.fold
    (fun a _ acc -> if Attribute.is_undefined a then acc + 1 else acc)
    t.attrs 0

let restrict t supported =
  List.filter (fun (a, _) -> Attribute.Set.mem a supported) (attributes t)

(* Percent-escape the wire's structural characters so the encoding is
   injective for arbitrary string values. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' | '|' | '=' -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      if s.[i] = '%' then begin
        if i + 2 >= n then invalid_arg "Log_record: truncated escape";
        (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> invalid_arg "Log_record: bad escape");
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

let cell_to_string (a, v) =
  Printf.sprintf "%s=%s" (Attribute.to_string a) (Value.to_string v)

let fragment_wire ~glsn pairs =
  let fields =
    List.map
      (fun (a, v) ->
        Printf.sprintf "%s=%s"
          (escape (Attribute.to_string a))
          (escape (Value.to_wire v)))
      (List.sort (fun (a, _) (b, _) -> Attribute.compare a b) pairs)
  in
  String.concat "|" (Glsn.to_string glsn :: fields)

let fragment_of_wire wire =
  match String.split_on_char '|' wire with
  | [] -> invalid_arg "Log_record.fragment_of_wire: empty"
  | glsn_hex :: fields ->
    let glsn = Glsn.of_string glsn_hex in
    let pairs =
      List.map
        (fun field ->
          match String.index_opt field '=' with
          | None -> invalid_arg "Log_record.fragment_of_wire: missing '='"
          | Some i ->
            let attr = unescape (String.sub field 0 i) in
            let value =
              unescape (String.sub field (i + 1) (String.length field - i - 1))
            in
            (Attribute.of_string attr, Value.of_wire value))
        fields
    in
    (glsn, pairs)

let to_wire t = fragment_wire ~glsn:t.glsn (attributes t)

module Transaction = struct
  type record = t
  type t = { tsn : int; ttn : int; records : record list }

  let make ~tsn ~ttn ~records = { tsn; ttn; records }
  let glsns t = List.map glsn t.records
end
