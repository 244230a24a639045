type t = {
  seed : int;
  latency_ms : Node_id.t -> Node_id.t -> float;
  loss_rate : float;
  domains : int;
  max_pipeline_depth : int;
  coalesce : bool;
}

let default =
  {
    seed = 0;
    latency_ms = (fun _ _ -> 1.0);
    loss_rate = 0.0;
    domains = 1;
    max_pipeline_depth = 4;
    coalesce = false;
  }

let make ?(seed = 0) ?(latency_ms = default.latency_ms) ?(loss_rate = 0.0)
    ?(domains = 1) ?(max_pipeline_depth = 4) ?(coalesce = false) () =
  if loss_rate < 0.0 || loss_rate >= 1.0 then
    invalid_arg "Net.Config.make: loss_rate must be in [0, 1)";
  if domains < 1 then invalid_arg "Net.Config.make: domains must be >= 1";
  if max_pipeline_depth < 1 then
    invalid_arg "Net.Config.make: max_pipeline_depth must be >= 1";
  { seed; latency_ms; loss_rate; domains; max_pipeline_depth; coalesce }

let latency_profile ~seed ?(min_ms = 0.5) ?(max_ms = 8.0) () =
  if min_ms <= 0.0 || max_ms < min_ms then
    invalid_arg "Net.Config.latency_profile: need 0 < min_ms <= max_ms";
  fun src dst ->
    (* Pure in (seed, src, dst): the profile is a value, not a stream, so
       networks built from the same seed agree and the call order never
       matters. *)
    let h =
      Hashtbl.hash (seed, Node_id.to_string src, Node_id.to_string dst)
    in
    let unit = float_of_int (h land 0xFFFF) /. 65536.0 in
    min_ms +. (unit *. (max_ms -. min_ms))
