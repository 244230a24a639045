type event = Smc.Proto_util.wire_event

type t = { mutable rev_events : event list }

let record f =
  let t = { rev_events = [] } in
  let result =
    Smc.Proto_util.with_transcript_hook
      (fun e -> t.rev_events <- e :: t.rev_events)
      f
  in
  (result, t)

let events t = List.rev t.rev_events
let size t = List.length t.rev_events

let nodes t =
  List.sort_uniq Net.Node_id.compare
    (List.map (fun (e : event) -> e.node) t.rev_events)

let aggregates t node =
  List.filter_map
    (fun (e : event) ->
      if Net.Node_id.equal e.node node && e.sensitivity = Net.Ledger.Aggregate
      then Some e.value
      else None)
    (events t)
