type t = {
  net : Net.Network.t;
  auditor : Net.Node_id.t;
  allocator : Glsn.Allocator.t;
  mutable repository : Log_record.t Glsn.Map.t;
}

let create ~auditor () =
  {
    net = Net.Network.of_config (Net.Config.make ());
    auditor;
    allocator = Glsn.Allocator.create ();
    repository = Glsn.Map.empty;
  }

let net t = t.net
let auditor t = t.auditor

let submit t ~origin ~attributes =
  let glsn = Glsn.Allocator.next t.allocator in
  let record = Log_record.make ~glsn ~origin ~attributes in
  let bytes = String.length (Log_record.to_wire record) in
  Net.Network.send_exn t.net ~src:origin ~dst:t.auditor ~label:"central:log"
    ~bytes;
  Net.Network.round t.net;
  Smc.Proto_util.observe t.net ~node:t.auditor
    ~sensitivity:Net.Ledger.Plaintext ~tag:"central:log"
    (Net.Ledger.Batch (Log_record.cell_to_string, attributes));
  t.repository <- Glsn.Map.add glsn record t.repository;
  glsn

let record_count t = Glsn.Map.cardinal t.repository
let records t = List.map snd (Glsn.Map.bindings t.repository)

let query t criteria =
  Glsn.Map.fold
    (fun glsn record acc ->
      if Query.eval_record record criteria then glsn :: acc else acc)
    t.repository []
  |> List.rev
