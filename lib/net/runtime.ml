module Pipeline = struct
  type job = {
    finish : float;  (* completion instant on the pipelined clock *)
  }

  type t = {
    max_depth : int;
    resources : (string, float) Hashtbl.t;  (* node -> ready instant *)
    mutable in_flight : job list;
    mutable jobs : int;
    mutable peak_depth : int;
    mutable sequential_ms : float;
    mutable pipelined_ms : float;
  }

  type report = {
    jobs : int;
    peak_depth : int;
    sequential_ms : float;
    pipelined_ms : float;
  }

  let create ?(max_depth = 4) () =
    if max_depth < 1 then invalid_arg "Runtime.Pipeline.create: max_depth must be >= 1";
    {
      max_depth;
      resources = Hashtbl.create 16;
      in_flight = [];
      jobs = 0;
      peak_depth = 0;
      sequential_ms = 0.0;
      pipelined_ms = 0.0;
    }

  let ready t resource =
    Option.value ~default:0.0 (Hashtbl.find_opt t.resources resource)

  let active t instant =
    List.length (List.filter (fun j -> j.finish > instant) t.in_flight)

  let submit t ~resources ~duration_ms =
    if duration_ms < 0.0 || not (Float.is_finite duration_ms) then
      invalid_arg "Runtime.Pipeline.submit: bad duration";
    (* Earliest legal start: every storage node the clause touches must
       have finished its previous protocol role (the dependency graph,
       expressed as resource ready-times)... *)
    let start =
      List.fold_left (fun acc r -> Float.max acc (ready t r)) 0.0 resources
    in
    (* ... and the pipeline may keep at most [max_depth] clause
       evaluations in flight: past the cap, the start slides to the
       next completion. *)
    let start = ref start in
    while active t !start >= t.max_depth do
      let next =
        List.fold_left
          (fun acc j -> if j.finish > !start then Float.min acc j.finish else acc)
          infinity t.in_flight
      in
      start := next
    done;
    let start = !start in
    let finish = start +. duration_ms in
    let depth = active t start + 1 in
    t.in_flight <- { finish } :: List.filter (fun j -> j.finish > start) t.in_flight;
    List.iter (fun r -> Hashtbl.replace t.resources r finish) resources;
    t.jobs <- t.jobs + 1;
    if depth > t.peak_depth then t.peak_depth <- depth;
    t.sequential_ms <- t.sequential_ms +. duration_ms;
    if finish > t.pipelined_ms then t.pipelined_ms <- finish

  let report (t : t) : report =
    {
      jobs = t.jobs;
      peak_depth = t.peak_depth;
      sequential_ms = t.sequential_ms;
      pipelined_ms = t.pipelined_ms;
    }
end
