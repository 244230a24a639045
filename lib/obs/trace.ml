type span = {
  name : string;
  depth : int;
  start_ms : float;
  mutable duration_ms : float;
}

type t = {
  metrics : Metrics.t;
  mutable stack : span list;
  mutable completed : span list;  (* newest first *)
}

let create ?(metrics = Metrics.global) () =
  { metrics; stack = []; completed = [] }

let global = create ()

let with_span ?(t = global) ~clock name f =
  let span =
    { name; depth = List.length t.stack; start_ms = clock (); duration_ms = 0.0 }
  in
  t.stack <- span :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      span.duration_ms <- clock () -. span.start_ms;
      (match t.stack with
      | top :: rest when top == span -> t.stack <- rest
      | _ -> (* a nested span leaked; drop down to this one *)
        t.stack <-
          (let rec pop = function
             | [] -> []
             | top :: rest -> if top == span then rest else pop rest
           in
           pop t.stack));
      t.completed <- span :: t.completed;
      Metrics.observe ~m:t.metrics ("span." ^ name) span.duration_ms)
    f

let current_path ?(t = global) () = List.rev_map (fun s -> s.name) t.stack

let spans ?(t = global) () = List.rev t.completed

let reset ?(t = global) () =
  t.stack <- [];
  t.completed <- []
