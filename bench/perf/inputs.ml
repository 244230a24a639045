(* Seeded inputs: log rows, principals and audit criteria.

   Rows carry every attribute of the paper partition that the criteria
   use (P0: time, C4 · P1: id, C2, C5 · P2: tid, C3, C6 · P3: protocl,
   C1), so local, multi-home and both cross-node comparison pairs all
   select real data. *)

open Dla

let users = 2000

(* Distinct input streams under one seed. *)
let rows_stream = 1
let principal_stream = 2
let criteria_stream = 3

let draw ~seed ~stream i k bound = Util.Draw.int ~seed ~stream i k bound

let principal ~seed i = 1 + draw ~seed ~stream:principal_stream i 0 users

(* A column with [levels] equally likely values, stratified: every
   block of [levels] consecutive rows holds each value exactly once, in
   a seeded order.  A predicate's selectivity, and with it the size of
   every glsn set the protocols encrypt, blind or ship, is then the same
   at every seed; only which rows match changes.  One cached block per
   column: rows are generated in runs of consecutive indices. *)
let stratified =
  let cache = Hashtbl.create 8 in
  fun ~seed ~column i levels ->
    let block = i / levels in
    let perm =
      match Hashtbl.find_opt cache column with
      | Some (s, b, p) when s = seed && b = block -> p
      | _ ->
        let p = Array.init levels Fun.id in
        for j = levels - 1 downto 1 do
          let k = draw ~seed ~stream:(rows_stream + (10 * column)) block j (j + 1) in
          let t = p.(j) in
          p.(j) <- p.(k);
          p.(k) <- t
        done;
        Hashtbl.replace cache column (seed, block, p);
        p
    in
    perm.(i mod levels)

(* Row [i]: its [id] is the submitting principal's, so a point lookup
   on [id] finds that user's records.  A third of the rows are TCP, one
   in ten has [tid = id] and one in four has [C3 = C2], so the string
   and money cross comparisons both match a non-trivial share. *)
let row ~seed i =
  let level column levels = stratified ~seed ~column i levels in
  let d = Attribute.defined and u = Attribute.undefined in
  let user = principal ~seed i in
  let c2 = 50_000 + draw ~seed ~stream:rows_stream i 1 20_000 in
  [ (d "time", Value.Time (1_700_000_000 + i));
    (d "id", Value.Str (Printf.sprintf "U%d" user));
    (d "protocl", Value.Str (if level 1 3 = 0 then "TCP" else "UDP"));
    (d "tid",
      Value.Str (if level 2 10 = 0 then Printf.sprintf "U%d" user else Printf.sprintf "T%07d" i));
    (u 1, Value.Int (level 3 100));
    (u 2, Value.Money c2);
    (u 3,
      Value.Money (if level 4 4 = 0 then c2 else 50_000 + draw ~seed ~stream:rows_stream i 2 20_000));
    (u 4, Value.Int (level 5 100));
    (u 5, Value.Int (level 6 100));
    (u 6, Value.Int (level 7 100))
  ]

(* A query constant in [lo, lo + width), drawn for slot [k] of item [i]. *)
let constant ~seed i k ~lo ~width = lo + draw ~seed ~stream:criteria_stream i k width

(* The audit_mix templates, cheapest to dearest on a 2-core host.
   Constants of the expensive templates come from narrow bands so a
   seed moves selectivity (and so cost) by a few percent only. *)
type template = {
  label : string;
  delivery : Executor.delivery;
  text : seed:int -> int -> string;  (** criteria for draw [i] *)
}

let templates =
  [ { label = "point"; delivery = Executor.Glsns;
      text = (fun ~seed i -> Printf.sprintf {|id = "U%d"|} (1 + draw ~seed ~stream:criteria_stream i 0 users)) };
    { label = "count_only"; delivery = Executor.Count_only;
      text = (fun ~seed i ->
        Printf.sprintf {|protocl = "TCP" && C1 < %d|} (constant ~seed i 1 ~lo:30 ~width:40)) };
    { label = "local"; delivery = Executor.Glsns;
      text = (fun ~seed i ->
        Printf.sprintf {|C1 > %d && protocl = "UDP"|} (constant ~seed i 1 ~lo:30 ~width:40)) };
    { label = "cross_gt"; delivery = Executor.Glsns; text = (fun ~seed:_ _ -> {|C1 > C4|}) };
    { label = "cross_eq"; delivery = Executor.Glsns; text = (fun ~seed:_ _ -> {|C2 = C3|}) };
    { label = "cross_ne"; delivery = Executor.Glsns; text = (fun ~seed:_ _ -> {|tid != id|}) };
    { label = "multi_home"; delivery = Executor.Glsns;
      text = (fun ~seed i ->
        Printf.sprintf {|C1 > %d && C4 < %d|} (constant ~seed i 1 ~lo:49 ~width:3)
          (constant ~seed i 2 ~lo:49 ~width:3)) }
  ]

(* Draw [i]'s template: each cycle of [List.length templates] draws is
   a seeded permutation of all templates, so every run mixes them in
   equal shares and a seed changes the order, never the mix. *)
let template_of ~seed i =
  let n = List.length templates in
  let cycle = i / n and pos = i mod n in
  let keyed =
    List.mapi (fun j t -> (draw ~seed ~stream:criteria_stream cycle (100 + j) max_int, t)) templates
  in
  snd (List.nth (List.sort (fun (a, _) (b, _) -> compare a b) keyed) pos)

(* The P18 eight-criteria batch with seeded constants.  Each constant
   is shared by every criterion that uses it, so the batch keeps its
   clause sharing (dedup) at any seed.  The bands are narrow: every
   session's ring passes encrypt these selections, so a wider band would
   move a session's modexp count, and its time, with the seed. *)
let session_batch ~seed =
  let c k lo = constant ~seed 0 k ~lo ~width:3 in
  let c1 = c 1 29 and c4 = c 2 49 and c5 = c 3 49 and c6 = c 4 49 in
  [ Printf.sprintf {|C1 > %d && C4 < %d|} c1 c4;
    Printf.sprintf {|C5 < %d && C6 < %d|} c5 c6;
    Printf.sprintf {|C1 > %d && C5 < %d && C2 = C3|} c1 c5;
    Printf.sprintf {|C4 < %d && C1 > C4|} c4;
    Printf.sprintf {|C6 < %d && tid != id|} c6;
    Printf.sprintf {|C1 > %d && C1 = C4|} c1;
    Printf.sprintf {|C4 < %d && C5 < %d && C6 < %d|} c4 c5 c6;
    Printf.sprintf {|protocl = "UDP" && C1 > %d && C4 < %d|} c1 c4
  ]

(* The stream workload's standing criteria: a local conjunction, a
   count-only criterion and a cross comparison. *)
let standing ~seed =
  [ (Executor.Glsns,
      Printf.sprintf {|C1 > %d && C4 < %d|} (constant ~seed 1 1 ~lo:45 ~width:10)
        (constant ~seed 1 2 ~lo:45 ~width:10));
    (Executor.Count_only, Printf.sprintf {|C5 < %d|} (constant ~seed 1 3 ~lo:30 ~width:40));
    (Executor.Glsns, {|C2 = C3|})
  ]

(* On-demand reads beside the stream, rotating over three shapes. *)
let stream_read ~seed k =
  match k mod 3 with
  | 0 ->
    (Executor.Glsns,
      Printf.sprintf {|C1 > %d && C4 < %d|} (constant ~seed (1000 + k) 1 ~lo:30 ~width:40)
        (constant ~seed (1000 + k) 2 ~lo:30 ~width:40))
  | 1 -> (Executor.Count_only, Printf.sprintf {|protocl = "UDP" && C1 > %d|} (constant ~seed (1000 + k) 1 ~lo:0 ~width:100))
  | _ -> (Executor.Glsns, Printf.sprintf {|id = "U%d"|} (1 + draw ~seed ~stream:criteria_stream (1000 + k) 3 users))
