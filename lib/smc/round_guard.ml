open Numtheory

type reason = Corrupted | Dropped | Replayed | Forged_share

let reason_to_string = function
  | Corrupted -> "corrupted payload"
  | Dropped -> "dropped payload"
  | Replayed -> "replayed payload"
  | Forged_share -> "forged share"

type accusation = {
  accused : Net.Node_id.t;
  label : string;
  seq : int;
  reason : reason;
}

let accusation_to_string a =
  Printf.sprintf "%s on %s (pass %d): %s"
    (Net.Node_id.to_string a.accused)
    a.label a.seq (reason_to_string a.reason)

type t = {
  mutable seq : int;
  (* claimed-commitment history per (src, label) channel, newest first *)
  history : (string, string list) Hashtbl.t;
  mutable accs : accusation list; (* newest first *)
  mutable verify_msgs : int;
  mutable verify_bytes : int;
}

let create () =
  {
    seq = 0;
    history = Hashtbl.create 16;
    accs = [];
    verify_msgs = 0;
    verify_bytes = 0;
  }

let digest values =
  values
  |> List.map Bignum.to_hex
  |> String.concat ";"
  |> Crypto.Sha256.digest_hex

let charge t ~msgs ~bytes =
  t.verify_msgs <- t.verify_msgs + msgs;
  t.verify_bytes <- t.verify_bytes + bytes;
  Obs.Metrics.incr ~by:msgs "byz.verify.msgs";
  Obs.Metrics.incr ~by:bytes "byz.verify.bytes"

let record t acc =
  t.accs <- acc :: t.accs;
  Obs.Metrics.incr "byz.accusations";
  Obs.Metrics.incr ("byz.detect." ^ reason_to_string acc.reason)

let accuse t ~accused ~label ~reason =
  t.seq <- t.seq + 1;
  record t { accused; label; seq = t.seq; reason }

(* A commitment is a 32-byte digest; sender commitment plus receiver
   echo make the exchange two verification messages per pass. *)
let commitment_bytes = 32

let observe_pass t ~src ~dst:_ ~label ~claimed ~received =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  charge t ~msgs:2 ~bytes:(2 * commitment_bytes);
  let claimed_digest = digest claimed in
  let received_digest = digest received in
  let key = Net.Node_id.to_string src ^ "|" ^ label in
  let history = Option.value ~default:[] (Hashtbl.find_opt t.history key) in
  if not (String.equal claimed_digest received_digest) then begin
    let reason =
      if received = [] && claimed <> [] then Dropped
      else if List.exists (String.equal received_digest) history then Replayed
      else Corrupted
    in
    record t { accused = src; label; seq; reason }
  end;
  Hashtbl.replace t.history key (claimed_digest :: history);
  claimed_digest

let accusations t = List.rev t.accs

let accused_nodes t =
  List.map (fun a -> a.accused) t.accs
  |> List.sort_uniq Net.Node_id.compare

let verify_cost t = (t.verify_msgs, t.verify_bytes)

let active : t option ref = ref None
let current () = !active

let with_guard t f =
  let prev = !active in
  active := Some t;
  Fun.protect ~finally:(fun () -> active := prev) f
