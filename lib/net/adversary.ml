open Numtheory

type behavior = Equivocate | Corrupt | Forge_share | Drop | Replay | Reorder

let behavior_to_string = function
  | Equivocate -> "equivocate"
  | Corrupt -> "corrupt"
  | Forge_share -> "forge-share"
  | Drop -> "drop"
  | Replay -> "replay"
  | Reorder -> "reorder"

type plan = {
  node : Node_id.t;
  behavior : behavior;
  labels : string list option;
}

let plan ?labels node behavior = { node; behavior; labels }

type injection = {
  by : Node_id.t;
  dst : Node_id.t;
  label : string;
  seq : int;
  behavior : behavior;
}

type t = {
  seed : int;
  plans : plan list;
  (* per-(node, label-set) matching-send counters, keyed by plan index *)
  seqs : (int, int) Hashtbl.t;
  (* last honest payload per (src, label), for Replay *)
  last : (string, Bignum.t list) Hashtbl.t;
  mutable fenced : Node_id.Set.t;
  mutable log : injection list; (* newest first *)
}

let create ~seed plans =
  {
    seed;
    plans;
    seqs = Hashtbl.create 16;
    last = Hashtbl.create 16;
    fenced = Node_id.Set.empty;
    log = [];
  }

let quarantine t node = t.fenced <- Node_id.Set.add node t.fenced
let injections t = List.rev t.log

let injected_nodes t =
  List.map (fun i -> i.by) t.log |> List.sort_uniq Node_id.compare

let label_matches plan label =
  match plan.labels with
  | None -> true
  | Some ls -> List.exists (String.equal label) ls

(* Deterministic non-zero perturbation derived from the seed and the
   send coordinates: same run, same lies. *)
let delta t ~salt =
  let h = Hashtbl.hash (t.seed, salt) land 0xFFFF in
  Bignum.of_int (h + 1)

let payload_equal = List.equal Bignum.equal

let apply t (plan : plan) ~dst ~label ~seq values =
  match plan.behavior with
  | Corrupt ->
    let d = delta t ~salt:("corrupt", label, seq) in
    List.map (fun v -> Bignum.add v d) values
  | Equivocate ->
    let d = delta t ~salt:("equivocate", Node_id.to_string dst) in
    List.map (fun v -> Bignum.add v d) values
  | Forge_share ->
    let d = delta t ~salt:("forge", label, seq) in
    List.map (fun v -> Bignum.add v d) values
  | Drop -> []
  | Reorder -> List.rev values
  | Replay -> (
    (* deliver the previous payload on this (src, label) channel; the
       first send has nothing to replay and passes through *)
    let key = Node_id.to_string plan.node ^ "|" ^ label in
    let prev = Hashtbl.find_opt t.last key in
    Hashtbl.replace t.last key values;
    match prev with None -> values | Some p -> p)

let tamper t ~src ~dst ~label values =
  if Node_id.Set.mem src t.fenced then values
  else
    let result = ref values in
    List.iteri
      (fun idx plan ->
        if Node_id.equal plan.node src && label_matches plan label then begin
          let seq =
            Option.value ~default:0 (Hashtbl.find_opt t.seqs idx)
          in
          Hashtbl.replace t.seqs idx (seq + 1);
          let tampered = apply t plan ~dst ~label ~seq !result in
          if not (payload_equal tampered !result) then begin
            t.log <- { by = src; dst; label; seq; behavior = plan.behavior }
                     :: t.log;
            Obs.Metrics.incr "byz.injections";
            result := tampered
          end
        end)
      t.plans;
    !result

(* Global installation point, mirroring Proto_util.transcript_hook. *)
let active : t option ref = ref None
let current () = !active

let with_active t f =
  let prev = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := prev) f
