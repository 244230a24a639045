type task = unit -> unit

type t = {
  width : int;
  queue : task Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.width

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    task ();
    worker_loop t
  end

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  let t =
    {
      width = domains;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let inline = create ~domains:1

let active = ref inline
let current () = !active

let with_pool t f =
  let previous = !active in
  active := t;
  Fun.protect ~finally:(fun () -> active := previous) f

(* A one-shot cell filled by a worker; the submitter blocks on [await].
   Exceptions cross the domain boundary as values and re-raise after
   the join, so a failing chunk behaves like the inline path. *)
type 'a cell = {
  cell_lock : Mutex.t;
  cell_filled : Condition.t;
  mutable cell : ('a, exn) result option;
}

let submit t f =
  let cell =
    { cell_lock = Mutex.create (); cell_filled = Condition.create (); cell = None }
  in
  let task () =
    let result = try Ok (f ()) with e -> Error e in
    Mutex.lock cell.cell_lock;
    cell.cell <- Some result;
    Condition.signal cell.cell_filled;
    Mutex.unlock cell.cell_lock
  in
  Mutex.lock t.lock;
  Queue.push task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  cell

let await cell =
  Mutex.lock cell.cell_lock;
  while cell.cell = None do
    Condition.wait cell.cell_filled cell.cell_lock
  done;
  Mutex.unlock cell.cell_lock;
  Option.get cell.cell

(* Contiguous chunks with sizes that depend only on (length, width):
   the first [len mod width] chunks get one extra element. *)
let chunk_sizes len width =
  let base = len / width and extra = len mod width in
  List.init width (fun i -> base + if i < extra then 1 else 0)
  |> List.filter (fun s -> s > 0)

let split_chunks xs sizes =
  let rec take acc n xs =
    if n = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (x :: acc) (n - 1) rest
  in
  let rec go acc xs = function
    | [] -> List.rev acc
    | size :: rest ->
      let chunk, xs = take [] size xs in
      go (chunk :: acc) xs rest
  in
  go [] xs sizes

let map_list t ~min_chunk f xs =
  let len = List.length xs in
  if t.width <= 1 || len < 2 * min_chunk then begin
    Obs.Metrics.incr "pool.inline";
    f xs
  end
  else begin
    match split_chunks xs (chunk_sizes len t.width) with
    | [] | [ _ ] ->
      Obs.Metrics.incr "pool.inline";
      f xs
    | first :: rest ->
      Obs.Metrics.incr "pool.batches";
      Obs.Metrics.incr ~by:(List.length rest) "pool.jobs";
      Obs.Metrics.set_max "pool.domains.max" t.width;
      let cells = List.map (fun chunk -> submit t (fun () -> f chunk)) rest in
      (* The submitter takes the first chunk itself, then joins every
         farmed tail in submission order — result order is that of [xs]
         regardless of worker interleaving.  It joins them all before
         re-raising the first failure, so no chunk outlives the call. *)
      let head = try Ok (f first) with e -> Error e in
      head :: List.map await cells
      |> List.concat_map (function Ok v -> v | Error e -> raise e)
  end

(* Workers drain the queue before they stop, so joining them leaves no
   chunk running. *)
let shutdown t =
  if t.width > 1 then begin
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
