(* Tests for the DLA data model and cluster services: fragmentation,
   tickets, access control, storage, distributed logging, integrity
   cross-checking (§4.1) and the anonymous membership / evidence chain
   (§4.2). *)

open Dla

let d = Attribute.defined
let u = Attribute.undefined

(* ------------------------------------------------------------------ *)
(* Values and attributes                                               *)
(* ------------------------------------------------------------------ *)

let test_value_display () =
  Alcotest.(check string) "money" "23.45" (Value.to_string (Value.Money 2345));
  Alcotest.(check string) "money pad" "5.02" (Value.to_string (Value.Money 502));
  Alcotest.(check string) "negative money" "-1.05"
    (Value.to_string (Value.Money (-105)));
  Alcotest.(check string) "money from float" "23.45"
    (Value.to_string (Value.money_of_float 23.45))

let test_value_wire_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check bool) (Value.to_wire v) true
        (Value.equal v (Value.of_wire (Value.to_wire v))))
    [ Value.Int 42; Value.Int (-7); Value.Money 2345; Value.Time 1021234715;
      Value.Str "hello world"; Value.Str "" ]

let test_value_classes () =
  Alcotest.(check bool) "int~time" true
    (Value.comparable (Value.Int 5) (Value.Time 5));
  Alcotest.(check int) "int=time" 0
    (Value.compare_semantic (Value.Int 5) (Value.Time 5));
  Alcotest.(check bool) "int!~money" false
    (Value.comparable (Value.Int 5) (Value.Money 5));
  Alcotest.(check bool) "str!~int" false
    (Value.comparable (Value.Str "5") (Value.Int 5))

let test_attribute_parsing () =
  Alcotest.(check bool) "C7 undefined" true
    (Attribute.is_undefined (Attribute.of_string "C7"));
  Alcotest.(check string) "C7 roundtrip" "C7"
    (Attribute.to_string (Attribute.of_string "C7"));
  Alcotest.(check string) "case folding" "time"
    (Attribute.to_string (Attribute.of_string "TIME"));
  Alcotest.(check bool) "C0 not undefined" false
    (Attribute.is_undefined (Attribute.of_string "C0"));
  Alcotest.(check bool) "Cat not undefined" false
    (Attribute.is_undefined (Attribute.of_string "Cat"))

(* ------------------------------------------------------------------ *)
(* Glsn                                                                *)
(* ------------------------------------------------------------------ *)

let test_glsn_allocator () =
  let alloc = Glsn.Allocator.create () in
  let a = Glsn.Allocator.next alloc in
  let b = Glsn.Allocator.next alloc in
  Alcotest.(check string) "paper start" "139aef78" (Glsn.to_string a);
  Alcotest.(check bool) "monotonic" true (Glsn.compare a b < 0);
  Alcotest.(check int) "issued" 2 (Glsn.Allocator.issued alloc);
  Alcotest.(check string) "hex roundtrip" "139aef79"
    (Glsn.to_string (Glsn.of_string (Glsn.to_string b)))

(* ------------------------------------------------------------------ *)
(* Log records                                                         *)
(* ------------------------------------------------------------------ *)

let sample_record () =
  Log_record.make
    ~glsn:(Glsn.of_string "139aef78")
    ~origin:(Net.Node_id.User 1)
    ~attributes:
      [ (d "time", Value.Time 100); (d "id", Value.Str "U1");
        (u 1, Value.Int 20); (u 2, Value.Money 2345) ]

let test_log_record_basics () =
  let r = sample_record () in
  Alcotest.(check int) "width" 4 (Log_record.width r);
  Alcotest.(check int) "undefined" 2 (Log_record.undefined_count r);
  Alcotest.(check bool) "find" true
    (Log_record.find r (d "id") = Some (Value.Str "U1"));
  Alcotest.(check bool) "find missing" true (Log_record.find r (u 3) = None);
  Alcotest.(check int) "restrict" 1
    (List.length
       (Log_record.restrict r (Attribute.Set.singleton (d "time"))));
  Alcotest.check_raises "duplicate attribute"
    (Invalid_argument "Log_record.make: duplicate attribute") (fun () ->
      ignore
        (Log_record.make
           ~glsn:(Glsn.of_string "1")
           ~origin:(Net.Node_id.User 0)
           ~attributes:[ (u 1, Value.Int 1); (u 1, Value.Int 2) ]))

let test_log_record_wire_stable () =
  (* Attribute order must not matter — the integrity digest depends on a
     canonical form. *)
  let r1 =
    Log_record.make ~glsn:(Glsn.of_string "a") ~origin:(Net.Node_id.User 0)
      ~attributes:[ (u 1, Value.Int 1); (d "time", Value.Time 2) ]
  in
  let r2 =
    Log_record.make ~glsn:(Glsn.of_string "a") ~origin:(Net.Node_id.User 0)
      ~attributes:[ (d "time", Value.Time 2); (u 1, Value.Int 1) ]
  in
  Alcotest.(check string) "canonical" (Log_record.to_wire r1)
    (Log_record.to_wire r2)

(* ------------------------------------------------------------------ *)
(* Fragmentation                                                       *)
(* ------------------------------------------------------------------ *)

let test_paper_partition () =
  let f = Fragmentation.paper_partition in
  Alcotest.(check int) "4 nodes" 4 (List.length (Fragmentation.nodes f));
  Alcotest.(check bool) "time at P0" true
    (Fragmentation.home_of f (d "time") = Some (Net.Node_id.Dla 0));
  Alcotest.(check bool) "id at P1" true
    (Fragmentation.home_of f (d "id") = Some (Net.Node_id.Dla 1));
  Alcotest.(check bool) "tid at P2" true
    (Fragmentation.home_of f (d "tid") = Some (Net.Node_id.Dla 2));
  Alcotest.(check bool) "protocl at P3" true
    (Fragmentation.home_of f (d "protocl") = Some (Net.Node_id.Dla 3));
  Alcotest.(check bool) "unknown" true
    (Fragmentation.home_of f (d "missing") = None)

let test_fragmentation_validation () =
  Alcotest.check_raises "double assignment"
    (Invalid_argument "Fragmentation.make: attribute assigned to two nodes")
    (fun () ->
      ignore
        (Fragmentation.make
           [ (Net.Node_id.Dla 0, [ u 1 ]); (Net.Node_id.Dla 1, [ u 1 ]) ]));
  Alcotest.check_raises "node twice"
    (Invalid_argument "Fragmentation.make: node assigned twice") (fun () ->
      ignore
        (Fragmentation.make
           [ (Net.Node_id.Dla 0, [ u 1 ]); (Net.Node_id.Dla 0, [ u 2 ]) ]))

let test_fragment_covers_record () =
  let f = Fragmentation.paper_partition in
  let r = sample_record () in
  let fragments = Fragmentation.fragment f r in
  Alcotest.(check int) "entry per node" 4 (List.length fragments);
  let reassembled = List.concat_map snd fragments in
  Alcotest.(check int) "covers all attributes" (Log_record.width r)
    (List.length reassembled);
  Alcotest.(check int) "covering nodes" 3 (Fragmentation.covering_nodes f r)

let test_round_robin_partition () =
  let attrs = List.init 7 (fun i -> u (i + 1)) in
  let f =
    Fragmentation.round_robin ~nodes:(Net.Node_id.dla_ring 3) ~attrs
  in
  Alcotest.(check int) "universe" 7
    (Attribute.Set.cardinal (Fragmentation.universe f));
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Attribute.to_string a)
        true
        (Fragmentation.home_of f a <> None))
    attrs


let test_layout_spec_roundtrip () =
  let spec = "P0:time,C4; P1:eid,id,C2,C5; P2:tid,C3,C6; P3:ip,protocl,C1" in
  (match Fragmentation.of_spec spec with
  | Error e -> Alcotest.fail e
  | Ok layout ->
    Alcotest.(check string) "roundtrip" spec (Fragmentation.to_spec layout);
    Alcotest.(check bool) "same homes as paper partition" true
      (Fragmentation.home_of layout (d "time")
      = Fragmentation.home_of Fragmentation.paper_partition (d "time")));
  Alcotest.(check string) "paper partition spec"
    "P0:time,C4; P1:eid,id,C2,C5; P2:tid,C3,C6; P3:ip,protocl,C1"
    (Fragmentation.to_spec Fragmentation.paper_partition)

let test_layout_spec_errors () =
  List.iter
    (fun spec ->
      match Fragmentation.of_spec spec with
      | Ok _ -> Alcotest.failf "expected error for %S" spec
      | Error _ -> ())
    [ ""; "Q0:time"; "P0 time"; "P0:time; P1:time"; "Px:time" ]

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

let test_ticket_verify_and_expiry () =
  let authority = Ticket.Authority.create ~key:"secret" in
  let ticket =
    Ticket.Authority.issue authority ~id:"T1" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read; Ticket.Write ] ~expires_at:100
  in
  Alcotest.(check bool) "valid now" true
    (Ticket.Authority.verify authority ticket ~now:50 = Ok ());
  Alcotest.(check bool) "expired" true
    (Ticket.Authority.verify authority ticket ~now:101 = Error "expired");
  Alcotest.(check bool) "write authorized" true
    (Ticket.Authority.authorizes authority ticket ~now:50 Ticket.Write);
  Alcotest.(check bool) "delete not authorized" false
    (Ticket.Authority.authorizes authority ticket ~now:50 Ticket.Delete)

let test_ticket_forgery_detected () =
  let authority = Ticket.Authority.create ~key:"secret" in
  let ticket =
    Ticket.Authority.issue authority ~id:"T1" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read ] ~expires_at:100
  in
  let forged = Ticket.forge ticket ~rights:[ Ticket.Read; Ticket.Delete ] in
  Alcotest.(check bool) "forgery rejected" true
    (Ticket.Authority.verify authority forged ~now:50 = Error "bad MAC");
  (* A different authority's tickets are also rejected. *)
  let other = Ticket.Authority.create ~key:"other" in
  Alcotest.(check bool) "cross-authority rejected" true
    (Ticket.Authority.verify other ticket ~now:50 = Error "bad MAC")

(* ------------------------------------------------------------------ *)
(* Access control                                                      *)
(* ------------------------------------------------------------------ *)

let test_access_control () =
  let acl = Access_control.create () in
  let g1 = Glsn.of_string "139aef78" and g2 = Glsn.of_string "139aef79" in
  Access_control.grant acl ~ticket_id:"T1" g1;
  Access_control.grant acl ~ticket_id:"T1" g2;
  Access_control.grant acl ~ticket_id:"T1" g1;
  Alcotest.(check int) "idempotent grant" 2
    (Glsn.Set.cardinal (Access_control.glsns_of acl ~ticket_id:"T1"));
  Alcotest.(check bool) "authorizes" true
    (Access_control.authorizes acl ~ticket_id:"T1" g1);
  Alcotest.(check bool) "foreign ticket" false
    (Access_control.authorizes acl ~ticket_id:"T2" g1);
  Access_control.revoke acl ~ticket_id:"T1" g1;
  Alcotest.(check bool) "revoked" false
    (Access_control.authorizes acl ~ticket_id:"T1" g1);
  Alcotest.(check bool) "tamper moves" true
    (Access_control.tamper_move acl ~glsn:g2 ~from_ticket:"T1" ~to_ticket:"T9");
  Alcotest.(check bool) "moved" true
    (Access_control.authorizes acl ~ticket_id:"T9" g2)

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let test_storage () =
  let supported = Attribute.Set.of_list [ d "time"; u 1 ] in
  let store = Storage.create ~supported in
  let g = Glsn.of_string "139aef78" in
  Storage.store store ~glsn:g
    ~fragment:[ (d "time", Value.Time 5); (u 1, Value.Int 9) ];
  Alcotest.(check int) "count" 1 (Storage.record_count store);
  Alcotest.(check int) "column" 1
    (Storage.fold_column store (u 1) (fun n _ _ -> n + 1) 0);
  Alcotest.check_raises "duplicate glsn"
    (Invalid_argument "Storage.store: glsn already stored") (fun () ->
      Storage.store store ~glsn:g ~fragment:[]);
  Alcotest.check_raises "unsupported attribute"
    (Invalid_argument "Storage.store: unsupported attribute in fragment")
    (fun () ->
      Storage.store store ~glsn:(Glsn.of_string "ff")
        ~fragment:[ (u 2, Value.Int 1) ]);
  Alcotest.(check bool) "tamper set" true
    (Storage.tamper_set store ~glsn:g ~attr:(u 1) (Value.Int 999));
  Alcotest.(check bool) "tampered value" true
    (match Storage.fragment_of store g with
    | Some fragment -> List.assoc_opt (u 1) fragment = Some (Value.Int 999)
    | None -> false);
  Alcotest.(check bool) "tamper delete" true (Storage.tamper_delete store ~glsn:g);
  Alcotest.(check int) "deleted" 0 (Storage.record_count store)

(* The row-map store that columnar [Storage] replaced, kept verbatim as
   the reference: a map from glsn to the fragment's association list. *)
module Row_map_model = struct
  type t = {
    supported : Attribute.Set.t;
    mutable rows : (Attribute.t * Value.t) list Glsn.Map.t;
    mutable digests : Numtheory.Bignum.t Glsn.Map.t;
    mutable witnesses : Numtheory.Bignum.t Glsn.Map.t;
  }

  let create ~supported =
    {
      supported;
      rows = Glsn.Map.empty;
      digests = Glsn.Map.empty;
      witnesses = Glsn.Map.empty;
    }

  let store t ~glsn ~fragment =
    List.iter
      (fun (attr, _) ->
        if not (Attribute.Set.mem attr t.supported) then
          invalid_arg "Storage.store: unsupported attribute in fragment")
      fragment;
    if Glsn.Map.mem glsn t.rows then
      invalid_arg "Storage.store: glsn already stored";
    t.rows <- Glsn.Map.add glsn fragment t.rows

  let store_digest t ~glsn digest =
    t.digests <- Glsn.Map.add glsn digest t.digests

  let store_witness t ~glsn witness =
    t.witnesses <- Glsn.Map.add glsn witness t.witnesses

  let remove t ~glsn =
    let present = Glsn.Map.mem glsn t.rows || Glsn.Map.mem glsn t.digests in
    t.rows <- Glsn.Map.remove glsn t.rows;
    t.digests <- Glsn.Map.remove glsn t.digests;
    t.witnesses <- Glsn.Map.remove glsn t.witnesses;
    present

  let fragment_of t glsn = Glsn.Map.find_opt glsn t.rows
  let digest_of t glsn = Glsn.Map.find_opt glsn t.digests
  let witness_of t glsn = Glsn.Map.find_opt glsn t.witnesses
  let glsns t = List.map fst (Glsn.Map.bindings t.rows)
  let record_count t = Glsn.Map.cardinal t.rows

  let column t attr =
    Glsn.Map.fold
      (fun glsn fragment acc ->
        match List.assoc_opt attr fragment with
        | Some v -> (glsn, v) :: acc
        | None -> acc)
      t.rows []
    |> List.rev

  let tamper_set t ~glsn ~attr value =
    match Glsn.Map.find_opt glsn t.rows with
    | None -> false
    | Some fragment ->
      let replaced = ref false in
      let fragment' =
        List.map
          (fun (a, v) ->
            if Attribute.equal a attr then begin
              replaced := true;
              (a, value)
            end
            else (a, v))
          fragment
      in
      let fragment' =
        if !replaced then fragment' else (attr, value) :: fragment'
      in
      t.rows <- Glsn.Map.add glsn fragment' t.rows;
      true

  let tamper_delete t ~glsn =
    if Glsn.Map.mem glsn t.rows then begin
      t.rows <- Glsn.Map.remove glsn t.rows;
      true
    end
    else false
end

type storage_op =
  | Append of (Attribute.t * Value.t) list  (** just above the newest row *)
  | Store_at of int * (Attribute.t * Value.t) list  (** any slot, maybe taken *)
  | Store_unsupported of int
  | Remove_newest
  | Remove_middle
  | Tamper_set of int * Attribute.t * Value.t
  | Tamper_delete of int

let model_supported = [ d "time"; u 1; u 2 ]
let model_planted = u 9 (* supported by no node: only a tamper writes it *)
let model_attrs = model_supported @ [ model_planted ]
let model_slots = 24
let model_base = 0x139aef78
let model_glsn k = Glsn.of_string (Printf.sprintf "%x" (model_base + k))

let storage_op_to_string op =
  let fragment cells =
    String.concat "," (List.map Log_record.cell_to_string cells)
  in
  match op with
  | Append cells -> Printf.sprintf "append[%s]" (fragment cells)
  | Store_at (k, cells) -> Printf.sprintf "store %d [%s]" k (fragment cells)
  | Store_unsupported k -> Printf.sprintf "store-unsupported %d" k
  | Remove_newest -> "remove-newest"
  | Remove_middle -> "remove-middle"
  | Tamper_set (k, a, v) ->
    Printf.sprintf "tamper-set %d %s" k (Log_record.cell_to_string (a, v))
  | Tamper_delete k -> Printf.sprintf "tamper-delete %d" k

let storage_ops_gen =
  let open QCheck.Gen in
  let value =
    oneof
      [ map (fun i -> Value.Int i) (int_range 0 9);
        map (fun c -> Value.Money c) (int_range 0 999);
        map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "U1" ]) ]
  in
  (* A subset of the supported attributes (maybe none), in any order. *)
  let fragment =
    let* cells =
      flatten_l
        (List.map
           (fun attr ->
             let* keep = bool in
             if keep then map (fun v -> [ (attr, v) ]) value else return [])
           model_supported)
    in
    shuffle_l (List.concat cells)
  in
  let slot = int_range 0 (model_slots - 1) in
  let op =
    frequency
      [ (4, map (fun f -> Append f) fragment);
        (4, map2 (fun k f -> Store_at (k, f)) slot fragment);
        (1, map (fun k -> Store_unsupported k) slot);
        (1, return Remove_newest);
        (1, return Remove_middle);
        ( 2,
          map3
            (fun k a v -> Tamper_set (k, a, v))
            slot (oneofl model_attrs) value );
        (1, map (fun k -> Tamper_delete k) slot) ]
  in
  list_size (int_range 1 40) op

let prop_storage_matches_row_map =
  QCheck.Test.make ~name:"columnar storage = the row map it replaced"
    ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; " (List.map storage_op_to_string ops))
       storage_ops_gen)
    (fun ops ->
      let supported = Attribute.Set.of_list model_supported in
      let store = Storage.create ~supported in
      let model = Row_map_model.create ~supported in
      (* A row with the record-level deposits a commit makes; the
         [Invalid_argument] message if the store refuses it. *)
      let commit store_row store_digest store_witness glsn fragment =
        match
          store_row ~glsn ~fragment;
          store_digest ~glsn (Numtheory.Bignum.of_int (Glsn.to_int glsn));
          store_witness ~glsn (Numtheory.Bignum.of_int (2 * Glsn.to_int glsn))
        with
        | () -> Ok ()
        | exception Invalid_argument m -> Error m
      in
      let store_commit =
        commit (Storage.store store) (Storage.store_digest store)
          (Storage.store_witness store)
      and model_commit =
        commit (Row_map_model.store model) (Row_map_model.store_digest model)
          (Row_map_model.store_witness model)
      in
      let both_store glsn fragment =
        store_commit glsn fragment = model_commit glsn fragment
      in
      let both_remove glsn =
        Storage.remove store ~glsn = Row_map_model.remove model ~glsn
      in
      let step = function
        | Append fragment ->
          let next =
            match List.rev (Row_map_model.glsns model) with
            | newest :: _ -> Glsn.to_int newest - model_base + 1
            | [] -> 0
          in
          both_store (model_glsn next) fragment
        | Store_at (k, fragment) -> both_store (model_glsn k) fragment
        | Store_unsupported k ->
          let fragment = [ (model_planted, Value.Int 1) ] in
          let got = store_commit (model_glsn k) fragment in
          Result.is_error got && got = model_commit (model_glsn k) fragment
        | Remove_newest -> (
          match List.rev (Row_map_model.glsns model) with
          | newest :: _ -> both_remove newest
          | [] -> both_remove (model_glsn 0))
        | Remove_middle -> (
          match Row_map_model.glsns model with
          | [] -> both_remove (model_glsn 0)
          | rows -> both_remove (List.nth rows (List.length rows / 2)))
        | Tamper_set (k, attr, v) ->
          Storage.tamper_set store ~glsn:(model_glsn k) ~attr v
          = Row_map_model.tamper_set model ~glsn:(model_glsn k) ~attr v
        | Tamper_delete k ->
          Storage.tamper_delete store ~glsn:(model_glsn k)
          = Row_map_model.tamper_delete model ~glsn:(model_glsn k)
      in
      let by_attr cells =
        List.stable_sort (fun (a, _) (b, _) -> Attribute.compare a b) cells
      in
      let agree () =
        let column attr =
          List.rev
            (Storage.fold_column store attr (fun acc g v -> (g, v) :: acc) [])
        in
        let pair a b =
          List.rev
            (Storage.fold_column_pair store a b
               (fun acc g va vb -> (g, va, vb) :: acc)
               [])
        in
        let model_pair a b =
          List.filter_map
            (fun (g, fragment) ->
              match (List.assoc_opt a fragment, List.assoc_opt b fragment) with
              | Some va, Some vb -> Some (g, va, vb)
              | _ -> None)
            (Glsn.Map.bindings model.Row_map_model.rows)
        in
        let slots = List.init (model_slots + 45) model_glsn in
        Storage.glsns store = Row_map_model.glsns model
        && Storage.record_count store = Row_map_model.record_count model
        && List.for_all
             (fun a -> column a = Row_map_model.column model a)
             model_attrs
        && List.for_all
             (fun a ->
               List.for_all (fun b -> pair a b = model_pair a b) model_attrs)
             model_attrs
        && List.for_all
             (fun g ->
               Storage.fragment_of store g
               = Option.map by_attr (Row_map_model.fragment_of model g)
               && Option.equal Numtheory.Bignum.equal (Storage.digest_of store g)
                    (Row_map_model.digest_of model g)
               && Option.equal Numtheory.Bignum.equal (Storage.witness_of store g)
                    (Row_map_model.witness_of model g))
             slots
      in
      List.for_all (fun op -> step op && agree ()) ops)


(* ------------------------------------------------------------------ *)
(* Cluster logging flow                                                *)
(* ------------------------------------------------------------------ *)

let build_cluster () =
  let cluster = Cluster.create ~seed:1 Fragmentation.paper_partition in
  let ticket =
    Cluster.issue_ticket cluster ~id:"T1" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600
  in
  (cluster, ticket)

let paper_attributes time =
  [ (d "time", Value.Time time); (d "id", Value.Str "U1");
    (d "protocl", Value.Str "UDP"); (d "tid", Value.Str "T1100265");
    (u 1, Value.Int 20); (u 2, Value.Money 2345); (u 3, Value.Str "sig")
  ]

let test_cluster_submit_and_reassemble () =
  let cluster, ticket = build_cluster () in
  match
    Cluster.to_result
      (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
         ~attributes:(paper_attributes 1000))
  with
  | Error e -> Alcotest.fail e
  | Ok glsn ->
    Alcotest.(check int) "one record" 1 (Cluster.record_count cluster);
    (match Cluster.record_of cluster glsn with
    | None -> Alcotest.fail "reassembly failed"
    | Some record ->
      Alcotest.(check int) "all attributes" 7 (Log_record.width record);
      Alcotest.(check bool) "value survives" true
        (Log_record.find record (u 2) = Some (Value.Money 2345)));
    (* Each node's ACL lists the glsn under T1. *)
    List.iter
      (fun node ->
        let store = Cluster.store_of cluster node in
        Alcotest.(check bool)
          (Net.Node_id.to_string node)
          true
          (Access_control.authorizes (Storage.acl store) ~ticket_id:"T1" glsn))
      (Cluster.nodes cluster)

let test_cluster_rejects_bad_tickets () =
  let cluster, ticket = build_cluster () in
  (* Wrong principal. *)
  (match
     Cluster.to_result
       (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 2)
          ~attributes:(paper_attributes 1))
   with
  | Error e ->
    Alcotest.(check string) "principal" "ticket rejected: principal mismatch" e
  | Ok _ -> Alcotest.fail "expected rejection");
  (* Expired. *)
  Cluster.advance_time cluster 7200;
  (match
     Cluster.to_result
       (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
          ~attributes:(paper_attributes 1))
   with
  | Error e -> Alcotest.(check string) "expired" "ticket rejected: expired" e
  | Ok _ -> Alcotest.fail "expected rejection");
  (* Read-only ticket. *)
  let read_only =
    Cluster.issue_ticket cluster ~id:"RO" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read ] ~ttl:3600
  in
  (match
     Cluster.to_result
       (Cluster.submit cluster ~ticket:read_only ~origin:(Net.Node_id.User 1)
          ~attributes:(paper_attributes 1))
   with
  | Error e ->
    Alcotest.(check string) "read-only" "ticket rejected: no write right" e
  | Ok _ -> Alcotest.fail "expected rejection");
  (* Unsupported attribute. *)
  let ticket2 =
    Cluster.issue_ticket cluster ~id:"T2" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Write ] ~ttl:3600
  in
  match
    Cluster.to_result
      (Cluster.submit cluster ~ticket:ticket2 ~origin:(Net.Node_id.User 1)
         ~attributes:[ (d "salary", Value.Money 1) ])
  with
  | Error e ->
    Alcotest.(check string) "unknown attr"
      "no DLA node supports attribute salary" e
  | Ok _ -> Alcotest.fail "expected rejection"

let test_cluster_fragment_isolation () =
  (* The §2 claim: each node stores only its columns, so no single node's
     ledger contains a full record. *)
  let cluster, ticket = build_cluster () in
  (match
     Cluster.to_result
       (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
          ~attributes:(paper_attributes 1000))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  (* P1 (id, eid, C2, C5) saw the id and C2 columns... *)
  Alcotest.(check bool) "P1 saw id" true
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 1) "id=U1");
  (* ...but not the time or the C3 memo. *)
  Alcotest.(check bool) "P1 never saw time" false
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 1) "time=1000");
  Alcotest.(check bool) "P1 never saw C3" false
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 1) "C3=sig");
  Alcotest.(check bool) "P0 saw time" true
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 0) "time=1000");
  Alcotest.(check bool) "P0 never saw C2" false
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 0) "C2=23.45")

let test_drain_hints_idempotent () =
  (* Regression: draining is exactly-once.  A drain that cannot deliver
     re-parks (never drops); a drain after delivery is a strict no-op
     (never double-commits). *)
  Obs.Metrics.reset ();
  let cluster, ticket = build_cluster () in
  let net = Cluster.net cluster in
  let victim = Net.Node_id.Dla 0 in
  Net.Network.take_down net victim;
  let submit_degraded time =
    match
      Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
        ~attributes:(paper_attributes time)
    with
    | Cluster.Committed_degraded (glsn, _) -> glsn
    | Cluster.Committed _ -> Alcotest.fail "expected degraded commit"
    | Cluster.Rejected e -> Alcotest.failf "rejected: %s" e
  in
  let g1 = submit_degraded 1000 in
  let g2 = submit_degraded 2000 in
  Alcotest.(check int) "two hints parked" 2
    (List.length (Cluster.pending_hints cluster));
  (* Crash-during-drain interleaving: the node looks up again but its
     circuit breaker is still open, so the send fails mid-drain.  The
     hints must be re-parked, not lost and not delivered. *)
  Net.Network.bring_up net victim;
  Alcotest.(check int) "failed drain delivers nothing" 0
    (List.length (Cluster.drain_hints cluster));
  Alcotest.(check int) "failed drain re-parks both hints" 2
    (List.length (Cluster.pending_hints cluster));
  Alcotest.(check int) "victim still empty" 0
    (Storage.record_count (Cluster.store_of cluster victim));
  (* Full recovery: drain delivers each hint exactly once. *)
  Net.Retry.reinstate (Cluster.retry cluster) victim;
  Alcotest.(check int) "recovered drain delivers both" 2
    (List.length (Cluster.drain_hints cluster));
  Alcotest.(check int) "no hints left" 0
    (List.length (Cluster.pending_hints cluster));
  Alcotest.(check int) "victim holds both fragments" 2
    (Storage.record_count (Cluster.store_of cluster victim));
  (* Idempotence: a second drain after delivery is a no-op. *)
  Alcotest.(check int) "second drain delivers nothing" 0
    (List.length (Cluster.drain_hints cluster));
  Alcotest.(check int) "victim unchanged" 2
    (Storage.record_count (Cluster.store_of cluster victim));
  Alcotest.(check int) "delivered counter saw exactly two" 2
    (Obs.Metrics.get "cluster.drain.delivered");
  (* Both records reassemble completely after the dust settles. *)
  List.iter
    (fun glsn ->
      match Cluster.record_of cluster glsn with
      | Some record ->
        Alcotest.(check int)
          ("full record " ^ Glsn.to_string glsn)
          7 (Log_record.width record)
      | None -> Alcotest.failf "record %s lost" (Glsn.to_string glsn))
    [ g1; g2 ]

let test_transaction_submission () =
  let cluster, ticket = build_cluster () in
  match
    Cluster.submit_transaction cluster ~ticket ~origin:(Net.Node_id.User 1)
      ~tsn:1 ~ttn:7
      ~events:[ paper_attributes 1000; paper_attributes 1010 ]
  with
  | Error e -> Alcotest.fail e
  | Ok (txn, _) ->
    Alcotest.(check int) "two events" 2
      (List.length txn.Log_record.Transaction.records);
    Alcotest.(check int) "tsn" 1 txn.Log_record.Transaction.tsn;
    Alcotest.(check int) "glsns distinct" 2
      (List.length
         (List.sort_uniq Glsn.compare (Log_record.Transaction.glsns txn)))

(* ------------------------------------------------------------------ *)
(* Integrity (§4.1)                                                    *)
(* ------------------------------------------------------------------ *)

let populated_cluster () =
  let cluster, ticket = build_cluster () in
  let glsns =
    List.map
      (fun time ->
        match
          Cluster.to_result
            (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
               ~attributes:(paper_attributes time))
        with
        | Ok glsn -> glsn
        | Error e -> Alcotest.failf "submit: %s" e)
      [ 1000; 1010; 1020 ]
  in
  (cluster, glsns)

let test_integrity_clean () =
  let cluster, glsns = populated_cluster () in
  List.iter
    (fun glsn ->
      match Integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0) glsn with
      | Ok () -> ()
      | Error v -> Alcotest.failf "clean check failed: %s" (Integrity.violation_to_string v))
    glsns;
  Alcotest.(check int) "no violations" 0
    (List.length (Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0)))

let test_integrity_detects_tamper () =
  let cluster, glsns = populated_cluster () in
  let victim = List.nth glsns 1 in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  Alcotest.(check bool) "tampered" true
    (Storage.tamper_set store ~glsn:victim ~attr:(u 2) (Value.Money 999999));
  (match Integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0) victim with
  | Error Integrity.Digest_mismatch -> ()
  | Error v -> Alcotest.failf "wrong violation: %s" (Integrity.violation_to_string v)
  | Ok () -> Alcotest.fail "tampering not detected");
  (* The other records still verify. *)
  let violations = Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0) in
  Alcotest.(check int) "exactly one violation" 1 (List.length violations);
  Alcotest.(check bool) "right glsn" true
    (Glsn.equal (fst (List.hd violations)) victim)

let test_integrity_detects_deletion () =
  let cluster, glsns = populated_cluster () in
  let victim = List.hd glsns in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 2) in
  Alcotest.(check bool) "deleted" true (Storage.tamper_delete store ~glsn:victim);
  match Integrity.check_record cluster ~initiator:(Net.Node_id.Dla 0) victim with
  | Error (Integrity.Missing_fragment node) ->
    Alcotest.(check string) "right node" "P2" (Net.Node_id.to_string node)
  | Error v -> Alcotest.failf "wrong violation: %s" (Integrity.violation_to_string v)
  | Ok () -> Alcotest.fail "deletion not detected"

let test_acl_consistency () =
  let cluster, glsns = populated_cluster () in
  Alcotest.(check bool) "consistent" true
    (Integrity.acl_consistent cluster ~ttp_seed:1 ~ticket_id:"T1");
  (* A compromised node rewrites its ACL copy. *)
  let store = Cluster.store_of cluster (Net.Node_id.Dla 3) in
  Alcotest.(check bool) "acl tampered" true
    (Access_control.tamper_move (Storage.acl store) ~glsn:(List.hd glsns)
       ~from_ticket:"T1" ~to_ticket:"T-evil");
  Alcotest.(check bool) "inconsistency detected" false
    (Integrity.acl_consistent cluster ~ttp_seed:2 ~ticket_id:"T1")


let test_integrity_witness_challenge () =
  (* Witness-based spot check: 2 messages, no ring circulation. *)
  let cluster, glsns = populated_cluster () in
  let glsn = List.hd glsns in
  Net.Network.reset_stats (Cluster.net cluster);
  (match
     Integrity.challenge_node cluster ~challenger:(Net.Node_id.Dla 0)
       ~node:(Net.Node_id.Dla 1) glsn
   with
  | Ok () -> ()
  | Error v -> Alcotest.failf "clean challenge failed: %s" (Integrity.violation_to_string v));
  Alcotest.(check int) "2 messages" 2
    (Net.Network.stats (Cluster.net cluster)).Net.Network.messages;
  (* A tampering node cannot answer the challenge. *)
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  ignore (Storage.tamper_set store ~glsn ~attr:(u 2) (Value.Money 1));
  match
    Integrity.challenge_node cluster ~challenger:(Net.Node_id.Dla 0)
      ~node:(Net.Node_id.Dla 1) glsn
  with
  | Error Integrity.Digest_mismatch -> ()
  | Error v -> Alcotest.failf "wrong violation: %s" (Integrity.violation_to_string v)
  | Ok () -> Alcotest.fail "tamper passed the challenge"

let test_integrity_non_member () =
  (* A node outside the cluster is a named argument error at every §4.1
     entry point, never a bare lookup failure. *)
  let cluster, glsns = populated_cluster () in
  let glsn = List.hd glsns in
  let outsider = Net.Node_id.Dla 9 and member = Net.Node_id.Dla 0 in
  let raises label f =
    Alcotest.check_raises label
      (Invalid_argument "Cluster.store_of: P9 is not a member of the cluster")
      (fun () -> ignore (f ()))
  in
  raises "check_record" (fun () ->
      Integrity.check_record cluster ~initiator:outsider glsn);
  raises "check_all" (fun () -> Integrity.check_all cluster ~initiator:outsider);
  raises "challenger" (fun () ->
      Integrity.challenge_node cluster ~challenger:outsider ~node:member glsn);
  raises "challenged node" (fun () ->
      Integrity.challenge_node cluster ~challenger:member ~node:outsider glsn);
  raises "async check_record" (fun () ->
      Async_integrity.check_record cluster ~initiator:outsider glsn)

let test_accumulator_witness_algebra () =
  let rng = Numtheory.Prng.create ~seed:40 in
  let params = Crypto.Accumulator.generate rng ~bits:128 in
  let set = [ "frag-a"; "frag-b"; "frag-c"; "frag-d" ] in
  let total = Crypto.Accumulator.accumulate_all params set in
  let witnesses = Crypto.Accumulator.witnesses params set in
  List.iter
    (fun (element, witness) ->
      Alcotest.(check bool) element true
        (Crypto.Accumulator.verify_membership params ~total ~witness element))
    witnesses;
  (* A witness for one element does not verify another. *)
  let _, w_a = List.hd witnesses in
  Alcotest.(check bool) "cross verify fails" false
    (Crypto.Accumulator.verify_membership params ~total ~witness:w_a "frag-b");
  (* Dynamic insertion keeps witnesses valid after updating. *)
  let total' = Crypto.Accumulator.add params ~total "frag-e" in
  let w_a' = Crypto.Accumulator.update_witness params ~witness:w_a ~added:"frag-e" in
  Alcotest.(check bool) "updated witness verifies" true
    (Crypto.Accumulator.verify_membership params ~total:total' ~witness:w_a'
       "frag-a")

(* ------------------------------------------------------------------ *)
(* Retrieval                                                           *)
(* ------------------------------------------------------------------ *)

let test_retrieval_owner_can_fetch () =
  let cluster, ticket = build_cluster () in
  match
    Cluster.to_result
      (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
         ~attributes:(paper_attributes 1000))
  with
  | Error e -> Alcotest.fail e
  | Ok glsn -> (
    match
      Retrieval.fetch_record cluster ~ticket ~requester:(Net.Node_id.User 1)
        glsn
    with
    | Error e -> Alcotest.fail e
    | Ok record ->
      Alcotest.(check int) "full record" 7 (Log_record.width record);
      Alcotest.(check bool) "value intact" true
        (Log_record.find record (u 2) = Some (Value.Money 2345)))

let test_retrieval_projection () =
  let cluster, ticket = build_cluster () in
  match
    Cluster.to_result
      (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
         ~attributes:(paper_attributes 1000))
  with
  | Error e -> Alcotest.fail e
  | Ok glsn -> (
    match
      Retrieval.fetch_projection cluster ~ticket
        ~requester:(Net.Node_id.User 1)
        ~attrs:[ d "id"; u 2 ] glsn
    with
    | Error e -> Alcotest.fail e
    | Ok pairs ->
      Alcotest.(check int) "two attributes" 2 (List.length pairs);
      Alcotest.(check bool) "id present" true
        (List.assoc_opt (d "id") pairs = Some (Value.Str "U1")))

let test_retrieval_denied () =
  let cluster, ticket = build_cluster () in
  let glsn =
    match
      Cluster.to_result
        (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
           ~attributes:(paper_attributes 1000))
    with
    | Ok glsn -> glsn
    | Error e -> Alcotest.failf "submit: %s" e
  in
  (* A different principal with its own ticket: its ACL entry does not
     list the glsn. *)
  let foreign =
    Cluster.issue_ticket cluster ~id:"T-foreign"
      ~principal:(Net.Node_id.User 2)
      ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:3600
  in
  (match
     Retrieval.fetch_record cluster ~ticket:foreign
       ~requester:(Net.Node_id.User 2) glsn
   with
  | Ok _ -> Alcotest.fail "foreign ticket must be denied"
  | Error e ->
    Alcotest.(check bool) "acl denial" true
      (String.length e > 0));
  (* The right principal but a stolen ticket. *)
  (match
     Retrieval.fetch_record cluster ~ticket ~requester:(Net.Node_id.User 2)
       glsn
   with
  | Ok _ -> Alcotest.fail "stolen ticket must be denied"
  | Error e ->
    Alcotest.(check string) "principal" "ticket rejected: principal mismatch" e);
  (* Write-only ticket lacks the read right. *)
  let write_only =
    Cluster.issue_ticket cluster ~id:"T-wo" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Write ] ~ttl:3600
  in
  (match
     Retrieval.fetch_record cluster ~ticket:write_only
       ~requester:(Net.Node_id.User 1) glsn
   with
  | Ok _ -> Alcotest.fail "write-only ticket must be denied"
  | Error e ->
    Alcotest.(check string) "read right" "ticket rejected: no read right" e);
  (* Expired ticket. *)
  Cluster.advance_time cluster 7200;
  match
    Retrieval.fetch_record cluster ~ticket ~requester:(Net.Node_id.User 1)
      glsn
  with
  | Ok _ -> Alcotest.fail "expired ticket must be denied"
  | Error e -> Alcotest.(check string) "expired" "ticket rejected: expired" e

(* One attribute stored on two nodes: the fragments form no record, and
   the owner's fetch says so instead of raising. *)
let test_retrieval_unassemblable () =
  let cluster, glsns = Workload.Paper_example.build () in
  let tampered = List.hd glsns in
  Alcotest.(check bool) "id planted on P0" true
    (Storage.tamper_set
       (Cluster.store_of cluster (Net.Node_id.Dla 0))
       ~glsn:tampered ~attr:(d "id") (Value.Str "U1"));
  let ticket =
    Cluster.issue_ticket cluster ~id:"T1" ~principal:(Net.Node_id.User 1)
      ~rights:[ Ticket.Read ] ~ttl:3600
  in
  let fetch glsn =
    Retrieval.fetch_record cluster ~ticket ~requester:(Net.Node_id.User 1) glsn
  in
  (match fetch tampered with
  | Ok _ -> Alcotest.fail "duplicate cells must not reassemble"
  | Error e ->
    Alcotest.(check string) "names the glsn"
      (Printf.sprintf "fragments stored under %s do not form one record"
         (Glsn.to_string tampered))
      e);
  match fetch (List.nth glsns 2) with
  | Ok record ->
    Alcotest.(check int) "T1's other row intact" 7 (Log_record.width record)
  | Error e -> Alcotest.fail e



let test_acl_sync_reconcile () =
  let cluster, glsns = populated_cluster () in
  Alcotest.(check int) "consistent initially" 0
    (List.length (Acl_sync.diverged cluster ~ticket_id:"T1"));
  (* P3 rewrites its copy. *)
  let store = Cluster.store_of cluster (Net.Node_id.Dla 3) in
  ignore
    (Access_control.tamper_move (Storage.acl store) ~glsn:(List.hd glsns)
       ~from_ticket:"T1" ~to_ticket:"T-evil");
  Alcotest.(check (list string)) "P3 diverged" [ "P3" ]
    (List.map Net.Node_id.to_string (Acl_sync.diverged cluster ~ticket_id:"T1"));
  (match
     Acl_sync.reconcile cluster ~rng:(Numtheory.Prng.create ~seed:60)
       ~ticket_id:"T1"
   with
  | Error e -> Alcotest.fail e
  | Ok overruled ->
    Alcotest.(check (list string)) "P3 overruled" [ "P3" ]
      (List.map Net.Node_id.to_string overruled));
  (* The entry is healed and the §4.1 check passes again. *)
  Alcotest.(check int) "consistent after" 0
    (List.length (Acl_sync.diverged cluster ~ticket_id:"T1"));
  Alcotest.(check bool) "secure check passes" true
    (Integrity.acl_consistent cluster ~ttp_seed:61 ~ticket_id:"T1")

let test_acl_sync_no_majority () =
  (* Two nodes each rewrite differently: 2 honest vs 1+1 -> still a
     majority of 2?  4 nodes: tamper two copies in two different ways
     leaves 2 honest = no strict majority. *)
  let cluster, glsns = populated_cluster () in
  let tamper node to_ticket =
    let store = Cluster.store_of cluster node in
    ignore
      (Access_control.tamper_move (Storage.acl store) ~glsn:(List.hd glsns)
         ~from_ticket:"T1" ~to_ticket)
  in
  tamper (Net.Node_id.Dla 2) "T-a";
  tamper (Net.Node_id.Dla 3) "T-b";
  match
    Acl_sync.reconcile cluster ~rng:(Numtheory.Prng.create ~seed:62)
      ~ticket_id:"T1"
  with
  | Ok _ -> Alcotest.fail "2-of-4 is not a strict majority"
  | Error e ->
    Alcotest.(check string) "error" "no strict majority over ACL entry digests" e

(* ------------------------------------------------------------------ *)
(* Replication and repair                                              *)
(* ------------------------------------------------------------------ *)

let test_fragment_wire_roundtrip () =
  let glsn = Glsn.of_string "139aef78" in
  let fragment =
    [ (d "id", Value.Str "U1|weird=chars%"); (u 1, Value.Int 42) ]
  in
  let wire = Log_record.fragment_wire ~glsn fragment in
  let glsn', fragment' = Log_record.fragment_of_wire wire in
  Alcotest.(check string) "glsn" (Glsn.to_string glsn) (Glsn.to_string glsn');
  Alcotest.(check bool) "value with reserved chars survives" true
    (List.assoc_opt (d "id") fragment' = Some (Value.Str "U1|weird=chars%"))

let test_replication_repair () =
  let cluster, glsns = populated_cluster () in
  let replication = Replication.setup cluster ~degree:2 in
  let placed = Replication.replicate_all replication cluster in
  Alcotest.(check int) "replicas placed" (2 * 4 * 3) placed;
  (* P1 loses two rows. *)
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  ignore (Storage.tamper_delete store ~glsn:(List.nth glsns 0));
  ignore (Storage.tamper_delete store ~glsn:(List.nth glsns 2));
  Alcotest.(check int) "rows lost" 1 (Storage.record_count store);
  let repaired = Replication.repair replication cluster in
  Alcotest.(check int) "two rows repaired" 2 (List.length repaired);
  Alcotest.(check int) "rows back" 3 (Storage.record_count store);
  (* Integrity is clean again — the repaired rows carry original data. *)
  Alcotest.(check int) "integrity clean after repair" 0
    (List.length (Integrity.check_all cluster ~initiator:(Net.Node_id.Dla 0)));
  (* And queries see the restored values. *)
  match
    Auditor_engine.run cluster ~auditor:Net.Node_id.Auditor
      (Auditor_engine.Text {|id = "U1"|})
  with
  | Ok audit ->
    Alcotest.(check int) "query sees repaired rows" 3
      (List.length audit.Auditor_engine.matching)
  | Error e -> Alcotest.fail (Audit_error.to_string e)

let test_replication_privacy () =
  (* Replica holders see only ciphertext blobs, never foreign columns. *)
  let cluster, _ = populated_cluster () in
  let replication = Replication.setup cluster ~degree:1 in
  ignore (Replication.replicate_all replication cluster);
  let ledger = Net.Network.ledger (Cluster.net cluster) in
  (* P2 now replicates P1's fragments; P1 holds id=U1 and the amounts. *)
  Alcotest.(check bool) "P2 never saw id plaintext" false
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 2) "id=U1");
  Alcotest.(check bool) "P2 never saw amount plaintext" false
    (Net.Ledger.saw_plaintext ledger ~node:(Net.Node_id.Dla 2) "C2=23.45")

let test_replication_unrecoverable () =
  (* If every replica holder also lost the blob, repair leaves the row
     missing rather than inventing data. *)
  let cluster, glsns = populated_cluster () in
  let replication = Replication.setup cluster ~degree:1 in
  ignore (Replication.replicate_all replication cluster);
  let victim = List.hd glsns in
  let store = Cluster.store_of cluster (Net.Node_id.Dla 1) in
  ignore (Storage.tamper_delete store ~glsn:victim);
  (* P1's only replica holder at degree 1 is P2; wipe its replica store
     by recreating it is not exposed, so delete its own row too and use
     a fresh replication state with no replicas for the victim. *)
  let fresh = Replication.setup cluster ~degree:1 in
  let repaired =
    List.filter (fun (_, g) -> Glsn.equal g victim) (Replication.repair fresh cluster)
  in
  (* fresh state has different keys: the blob decrypts to garbage and is
     rejected, so nothing is "repaired" with corrupt data. *)
  Alcotest.(check int) "no bogus repair" 0 (List.length repaired)


(* ------------------------------------------------------------------ *)
(* Coalition exposure                                                  *)
(* ------------------------------------------------------------------ *)

let test_exposure_single_node () =
  let cluster, _ = populated_cluster () in
  (* No single node covers any record fully (paper's §2 claim). *)
  List.iter
    (fun node ->
      let c = Exposure.coalition_coverage cluster ~coalition:[ node ] in
      Alcotest.(check int)
        (Net.Node_id.to_string node)
        0 c.Exposure.records_fully_covered;
      Alcotest.(check bool) "partial only" true
        (Exposure.fraction c < 1.0))
    (Cluster.nodes cluster)

let test_exposure_full_coalition () =
  let cluster, _ = populated_cluster () in
  let c =
    Exposure.coalition_coverage cluster ~coalition:(Cluster.nodes cluster)
  in
  Alcotest.(check int) "all records covered" c.Exposure.records_total
    c.Exposure.records_fully_covered;
  Alcotest.(check (float 1e-9)) "all cells" 1.0 (Exposure.fraction c)

let test_exposure_monotone () =
  let cluster, _ = populated_cluster () in
  let sweep = Exposure.sweep cluster in
  Alcotest.(check int) "4 coalition sizes" 4 (List.length sweep);
  let fractions = List.map (fun (_, c) -> Exposure.fraction c) sweep in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "coverage grows with coalition size" true
    (monotone fractions)


let arbitrary_fragment =
  let open QCheck.Gen in
  let value =
    oneof
      [ map (fun i -> Value.Int i) (int_range (-1000000) 1000000);
        map (fun i -> Value.Money i) (int_range 0 10000000);
        map (fun i -> Value.Time i) (int_range 0 2000000000);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20))
      ]
  in
  let attr =
    oneof
      [ map (fun i -> u (1 + i)) (int_range 0 8);
        oneofl [ d "time"; d "id"; d "protocl"; d "tid"; d "ip" ]
      ]
  in
  list_size (int_range 0 6) (pair attr value)

let prop_fragment_wire_roundtrip =
  QCheck.Test.make ~name:"fragment wire roundtrips any values" ~count:200
    (QCheck.make arbitrary_fragment)
    (fun pairs ->
      (* Deduplicate attributes (storage invariant). *)
      let pairs =
        List.fold_left
          (fun acc (a, v) ->
            if List.exists (fun (a2, _) -> Attribute.equal a a2) acc then acc
            else (a, v) :: acc)
          [] pairs
      in
      QCheck.assume
        (List.for_all
           (fun (_, v) ->
             match v with
             | Value.Str s -> not (String.contains s '\000')
             | _ -> true)
           pairs);
      let glsn = Glsn.of_string "139aef78" in
      let wire = Log_record.fragment_wire ~glsn pairs in
      let glsn2, pairs2 = Log_record.fragment_of_wire wire in
      Glsn.equal glsn glsn2
      && List.sort compare (List.map (fun (a, v) -> (Attribute.to_string a, Value.to_wire v)) pairs)
         = List.sort compare (List.map (fun (a, v) -> (Attribute.to_string a, Value.to_wire v)) pairs2))

(* ------------------------------------------------------------------ *)
(* Membership and evidence (§4.2)                                      *)
(* ------------------------------------------------------------------ *)

let grow_cluster () =
  let net = Net.Network.of_config (Net.Config.make ()) in
  let m = Membership.found ~net ~authority_seed:42 ~identity:"acme-corp" in
  let founder = List.hd (Membership.members m) in
  let p1 =
    match
      Membership.invite m ~inviter:founder.Membership.pseudonym
        ~invitee_identity:"globex" ~pp:"store 4 attrs" ~sc:"uptime 99.9"
    with
    | Ok member -> member
    | Error e -> Alcotest.failf "invite 1: %s" e
  in
  let p2 =
    match
      Membership.invite m ~inviter:p1.Membership.pseudonym
        ~invitee_identity:"initech" ~pp:"store 2 attrs" ~sc:"uptime 99.0"
    with
    | Ok member -> member
    | Error e -> Alcotest.failf "invite 2: %s" e
  in
  (m, founder, p1, p2)

let test_membership_growth_and_verification () =
  let m, _, _, _ = grow_cluster () in
  Alcotest.(check int) "3 members" 3 (List.length (Membership.members m));
  Alcotest.(check int) "2 evidence pieces" 2 (List.length (Membership.chain m));
  (match Membership.verify_chain m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chain: %s" e);
  Alcotest.(check int) "no cheaters" 0 (List.length (Membership.detect_cheaters m))

let test_membership_single_use_authority () =
  let m, founder, _, _ = grow_cluster () in
  match
    Membership.invite m ~inviter:founder.Membership.pseudonym
      ~invitee_identity:"sneaky" ~pp:"p" ~sc:"s"
  with
  | Error e ->
    Alcotest.(check string) "spent" "invitation authority already spent" e
  | Ok _ -> Alcotest.fail "second invite should be refused"

let test_membership_double_invite_exposed () =
  let m, founder, _, _ = grow_cluster () in
  (match
     Membership.rogue_invite m ~inviter:founder.Membership.pseudonym
       ~invitee_identity:"mallory" ~pp:"p2" ~sc:"s2"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rogue invite: %s" e);
  match Membership.detect_cheaters m with
  | [ (pseudonym, identity) ] ->
    Alcotest.(check string) "cheater pseudonym" founder.Membership.pseudonym
      pseudonym;
    Alcotest.(check string) "true identity exposed" "acme-corp" identity
  | other -> Alcotest.failf "expected one cheater, got %d" (List.length other)

let test_membership_anonymity () =
  (* Pseudonyms leak nothing about identities; a single evidence piece
     reveals only random-looking shares. *)
  let m, founder, p1, _ = grow_cluster () in
  let contains s sub =
    let nl = String.length sub and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "founder pseudonym opaque" false
    (contains founder.Membership.pseudonym "acme");
  Alcotest.(check bool) "member pseudonym opaque" false
    (contains p1.Membership.pseudonym "globex");
  Alcotest.(check int) "honest chain exposes nobody" 0
    (List.length (Membership.detect_cheaters m))

let test_evidence_r_binding () =
  (* Altering the negotiated terms invalidates the piece (r-binding). *)
  let m, _, _, _ = grow_cluster () in
  let piece = List.hd (Membership.chain m) in
  let tampered = { piece with Evidence.service_commitment = "uptime 0.1" } in
  match Evidence.verify_piece (Membership.authority m) tampered with
  | Error e ->
    Alcotest.(check string) "challenge mismatch"
      "challenge mismatch (terms altered?)" e
  | Ok () -> Alcotest.fail "tampered terms accepted"

let test_evidence_token_forgery () =
  let authority = Evidence.Authority.create ~seed:9 in
  let token, secrets = Evidence.Authority.issue authority ~identity:"honest" in
  Alcotest.(check bool) "genuine valid" true
    (Evidence.Authority.token_valid authority token);
  let other_authority = Evidence.Authority.create ~seed:10 in
  Alcotest.(check bool) "wrong authority" false
    (Evidence.Authority.token_valid other_authority token);
  (* A response to the wrong challenge fails verification. *)
  let piece =
    Evidence.make_piece ~inviter_token:token ~inviter_secrets:secrets
      ~invitee:"nym:deadbeef" ~pp:"pp" ~sc:"sc"
  in
  let wrong = { piece with Evidence.invitee = "nym:cafebabe" } in
  match Evidence.verify_piece authority wrong with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong-challenge piece accepted"

let prop_prng_identity_block_recovery =
  QCheck.Test.make ~name:"double-use always recovers identity" ~count:25
    (QCheck.pair QCheck.small_printable_string (QCheck.int_range 0 10_000))
    (fun (identity, seed) ->
      QCheck.assume (identity <> "");
      let authority = Evidence.Authority.create ~seed in
      let token, secrets = Evidence.Authority.issue authority ~identity in
      let p1 =
        Evidence.make_piece ~inviter_token:token ~inviter_secrets:secrets
          ~invitee:"nym:alpha" ~pp:"a" ~sc:"b"
      in
      let p2 =
        Evidence.make_piece ~inviter_token:token ~inviter_secrets:secrets
          ~invitee:"nym:beta" ~pp:"c" ~sc:"d"
      in
      match Evidence.recover_identity_block p1 p2 with
      | None -> false (* challenges differing nowhere: ~2^-32 *)
      | Some block ->
        Evidence.Authority.identity_of_block authority block = Some identity)


let prop_membership_random_growth =
  QCheck.Test.make ~name:"random chain growth verifies; rogues detected"
    ~count:25
    (QCheck.pair (QCheck.int_range 2 8) (QCheck.int_range 0 10_000))
    (fun (size, seed) ->
      let net = Net.Network.of_config (Net.Config.make ()) in
      let m = Membership.found ~net ~authority_seed:seed ~identity:"org-0" in
      let rec grow last i =
        if i >= size then ()
        else begin
          match
            Membership.invite m ~inviter:last
              ~invitee_identity:(Printf.sprintf "org-%d" i)
              ~pp:(Printf.sprintf "pp-%d" i) ~sc:(Printf.sprintf "sc-%d" i)
          with
          | Ok member -> grow member.Membership.pseudonym (i + 1)
          | Error _ -> ()
        end
      in
      let founder = List.hd (Membership.members m) in
      grow founder.Membership.pseudonym 1;
      let holders =
        List.filter
          (fun mem -> mem.Membership.has_invite_authority)
          (Membership.members m)
      in
      let honest_ok =
        Membership.verify_chain m = Ok ()
        && List.length holders = 1
        && Membership.detect_cheaters m = []
      in
      (* A seed-chosen past member goes rogue; it must be detected with
         its true identity. *)
      let rogue_index = seed mod (List.length (Membership.members m) - 1) in
      let rogue = List.nth (Membership.members m) rogue_index in
      let rogue_ok =
        match
          Membership.rogue_invite m ~inviter:rogue.Membership.pseudonym
            ~invitee_identity:"shadow" ~pp:"p" ~sc:"s"
        with
        | Error _ -> false
        | Ok _ -> (
          match Membership.detect_cheaters m with
          | [ (pseudonym, identity) ] ->
            String.equal pseudonym rogue.Membership.pseudonym
            && String.equal identity rogue.Membership.identity
          | _ -> false)
      in
      honest_ok && rogue_ok)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "dla"
    [ ( "values",
        [ Alcotest.test_case "display" `Quick test_value_display;
          Alcotest.test_case "wire roundtrip" `Quick test_value_wire_roundtrip;
          Alcotest.test_case "classes" `Quick test_value_classes;
          Alcotest.test_case "attribute parsing" `Quick test_attribute_parsing
        ] );
      ("glsn", [ Alcotest.test_case "allocator" `Quick test_glsn_allocator ]);
      ( "log-record",
        [ Alcotest.test_case "basics" `Quick test_log_record_basics;
          Alcotest.test_case "canonical wire" `Quick test_log_record_wire_stable
        ] );
      ( "fragmentation",
        [ Alcotest.test_case "paper partition" `Quick test_paper_partition;
          Alcotest.test_case "validation" `Quick test_fragmentation_validation;
          Alcotest.test_case "covers record" `Quick test_fragment_covers_record;
          Alcotest.test_case "round robin" `Quick test_round_robin_partition;
          Alcotest.test_case "layout spec roundtrip" `Quick test_layout_spec_roundtrip;
          Alcotest.test_case "layout spec errors" `Quick test_layout_spec_errors
        ] );
      ( "tickets",
        [ Alcotest.test_case "verify/expiry" `Quick test_ticket_verify_and_expiry;
          Alcotest.test_case "forgery detected" `Quick test_ticket_forgery_detected
        ] );
      ("acl", [ Alcotest.test_case "grant/revoke/tamper" `Quick test_access_control ]);
      ( "storage",
        [ Alcotest.test_case "store/tamper" `Quick test_storage;
          QCheck_alcotest.to_alcotest prop_storage_matches_row_map ] );
      ( "cluster",
        [ Alcotest.test_case "submit/reassemble" `Quick test_cluster_submit_and_reassemble;
          Alcotest.test_case "rejects bad tickets" `Quick test_cluster_rejects_bad_tickets;
          Alcotest.test_case "fragment isolation" `Quick test_cluster_fragment_isolation;
          Alcotest.test_case "transactions" `Quick test_transaction_submission;
          Alcotest.test_case "drain idempotence" `Quick
            test_drain_hints_idempotent
        ] );
      ( "integrity",
        [ Alcotest.test_case "clean pass" `Quick test_integrity_clean;
          Alcotest.test_case "detects tamper" `Quick test_integrity_detects_tamper;
          Alcotest.test_case "detects deletion" `Quick test_integrity_detects_deletion;
          Alcotest.test_case "acl consistency" `Quick test_acl_consistency;
          Alcotest.test_case "witness challenge" `Quick test_integrity_witness_challenge;
          Alcotest.test_case "non-member node" `Quick test_integrity_non_member;
          Alcotest.test_case "witness algebra" `Quick test_accumulator_witness_algebra
        ] );
      ( "exposure",
        [ Alcotest.test_case "single node partial" `Quick test_exposure_single_node;
          Alcotest.test_case "full coalition total" `Quick test_exposure_full_coalition;
          Alcotest.test_case "monotone" `Quick test_exposure_monotone
        ] );
      ( "acl-sync",
        [ Alcotest.test_case "reconcile" `Quick test_acl_sync_reconcile;
          Alcotest.test_case "no majority" `Quick test_acl_sync_no_majority
        ] );
      ( "replication",
        (QCheck_alcotest.to_alcotest prop_fragment_wire_roundtrip)
        :: [ Alcotest.test_case "wire roundtrip" `Quick test_fragment_wire_roundtrip;
          Alcotest.test_case "repair" `Quick test_replication_repair;
          Alcotest.test_case "privacy" `Quick test_replication_privacy;
          Alcotest.test_case "no bogus repair" `Quick test_replication_unrecoverable
           ] );
      ( "retrieval",
        [ Alcotest.test_case "owner fetch" `Quick test_retrieval_owner_can_fetch;
          Alcotest.test_case "projection" `Quick test_retrieval_projection;
          Alcotest.test_case "denied paths" `Quick test_retrieval_denied;
          Alcotest.test_case "unassemblable record" `Quick
            test_retrieval_unassemblable
        ] );
      ( "membership",
        Alcotest.test_case "growth+verify" `Quick test_membership_growth_and_verification
        :: Alcotest.test_case "single-use authority" `Quick
             test_membership_single_use_authority
        :: Alcotest.test_case "double-invite exposed" `Quick
             test_membership_double_invite_exposed
        :: Alcotest.test_case "anonymity" `Quick test_membership_anonymity
        :: Alcotest.test_case "r-binding" `Quick test_evidence_r_binding
        :: Alcotest.test_case "token forgery" `Quick test_evidence_token_forgery
        :: qt
             [ prop_prng_identity_block_recovery;
               prop_membership_random_growth ] )
    ]
