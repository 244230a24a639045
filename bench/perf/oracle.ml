(* Plaintext oracle: reassemble records with [Cluster.record_of] (the
   cluster-collusion view no single node has) and evaluate criteria on
   them with [Query.eval_record].  Runs untimed. *)

open Dla

type verdict = { count : int; digest : int }
(** A compact audit answer: the cardinality and the digest of the
    ascending glsn list — which must be empty under [Count_only]. *)

let of_answer ~count ~matching = { count; digest = Util.digest_glsns matching }

let reassemble cluster glsns =
  List.map
    (fun g ->
      match Cluster.record_of cluster g with
      | Some r -> r
      | None -> failwith ("oracle: no record for glsn " ^ Glsn.to_string g))
    glsns

(* Records must be glsn-ascending, as every engine answer is. *)
let expected records delivery query =
  let matching =
    List.filter_map
      (fun r -> if Query.eval_record r query then Some (Log_record.glsn r) else None)
      records
  in
  let delivered = match delivery with Executor.Glsns -> matching | Executor.Count_only -> [] in
  of_answer ~count:(List.length matching) ~matching:delivered

(* [got = want], reporting the first disagreement of a run on stderr. *)
let reported = ref false

let agrees ~what ~text ~got ~want =
  if got <> want && not !reported then begin
    reported := true;
    Printf.eprintf "oracle mismatch (%s) on %S: engine count %d, oracle count %d\n%!" what text
      got.count want.count
  end;
  got = want

(* Memoized by (record set, criteria text): the audit_mix constants
   repeat.  [scope] names the record set, e.g. a shard. *)
let memo () =
  let table = Hashtbl.create 64 in
  fun ~scope records delivery text ->
    let key = (scope, text, delivery = Executor.Glsns) in
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
      let v = expected records delivery (Run.parse text) in
      Hashtbl.replace table key v;
      v
