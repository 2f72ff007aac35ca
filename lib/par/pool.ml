(* The queue holds erased thunks; each [run] allocates its own result
   slots and completion counter, so several runs can be in flight at
   once — the serve daemon submits from concurrent request domains.
   Each caller blocks until its own batch settles, helping with the
   work (anyone's work: a helping caller may execute another batch's
   tasks) meanwhile. *)

type t =
  { pool_size : int
  ; lock : Mutex.t
  ; work : Condition.t  (* queue non-empty, or stopping *)
  ; settled : Condition.t  (* some batch finished a task *)
  ; queue : (unit -> unit) Queue.t
  ; mutable stopping : bool
  ; mutable workers : unit Domain.t list
  }

let size t = t.pool_size

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* take one task if available; runs it outside the lock *)
let try_step t =
  Mutex.lock t.lock;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  match task with
  | Some f ->
    f ();
    true
  | None -> false

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.lock
    done;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.lock;
    match task with
    | Some f ->
      f ();
      loop ()
    | None -> () (* stopping and drained *)
  in
  loop ()

let create ?domains () =
  let pool_size =
    match domains with
    | Some n -> max 1 n
    | None -> recommended_domains ()
  in
  let t =
    { pool_size
    ; lock = Mutex.create ()
    ; work = Condition.create ()
    ; settled = Condition.create ()
    ; queue = Queue.create ()
    ; stopping = false
    ; workers = []
    }
  in
  t.workers <- List.init (pool_size - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

(* completed task i on behalf of [run]: record, count down, wake caller *)
type 'a slot =
  | Pending
  | Done of 'a
  | Raised of exn

let run ?(label = "par.task") t thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  (* tasks inherit the submitter's ambient recorder: whoever executes a
     task — a worker domain, or another run's caller helping via
     [try_step] — records its spans and counters into the recorder of
     the run that submitted it, not into its own.  Skipped when the
     submitter is on the default recorder so the single-shot CLI path
     pays nothing. *)
  let amb = Sc_obs.Obs.ambient () in
  let obs = Sc_obs.Obs.Recorder.enabled amb in
  let exec f =
    let f = if obs then fun () -> Sc_obs.Obs.span label f else f in
    if amb == Sc_obs.Obs.default then f ()
    else Sc_obs.Obs.with_recorder amb f
  in
  if obs then Sc_obs.Obs.gauge "pool.width" t.pool_size;
  if t.pool_size <= 1 || n <= 1 then begin
    (* sequential path: no queueing, natural exception propagation *)
    if obs then Sc_obs.Obs.count "pool.d0.tasks" n;
    Array.to_list (Array.map (fun f -> exec f) thunks)
  end
  else begin
    let slots = Array.make n Pending in
    let remaining = ref n in
    (* which domain completed each task, for the load-imbalance gauges:
       workers rank by spawn order; everything else is rank 0, the caller
       side — this batch's caller, or another batch's caller that ran one
       of these tasks while helping *)
    let ran_on = Array.make n (-1) in
    let rank_of =
      let workers =
        List.mapi (fun i d -> ((Domain.get_id d :> int), i + 1)) t.workers
      in
      fun id -> Option.value ~default:0 (List.assoc_opt id workers)
    in
    let task i () =
      ran_on.(i) <- (Domain.self () :> int);
      (slots.(i) <-
        (match exec thunks.(i) with
        | v -> Done v
        | exception e -> Raised e));
      Mutex.lock t.lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.settled;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* the caller works the queue too, then waits for stragglers *)
    while try_step t do
      ()
    done;
    Mutex.lock t.lock;
    while !remaining > 0 do
      Condition.wait t.settled t.lock
    done;
    Mutex.unlock t.lock;
    if obs then begin
      Sc_obs.Obs.count (label ^ ".tasks") n;
      let per_rank = Array.make t.pool_size 0 in
      Array.iter
        (fun id -> if id >= 0 then begin
            let r = rank_of id in
            per_rank.(r) <- per_rank.(r) + 1
          end)
        ran_on;
      Array.iteri
        (fun r c ->
          if c > 0 then Sc_obs.Obs.count (Printf.sprintf "pool.d%d.tasks" r) c)
        per_rank
    end;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Raised e -> raise e
           | Pending -> assert false)
         slots)
  end

let map_list ?label t f xs = run ?label t (List.map (fun x () -> f x) xs)

let map_array ?label t f xs =
  Array.of_list (run ?label t (Array.to_list (Array.map (fun x () -> f x) xs)))

(* --- the process-default pool --- *)

let wanted = ref 1
let current : t option ref = ref None

let default_size () = !wanted

let drop_current () =
  match !current with
  | Some p ->
    current := None;
    shutdown p
  | None -> ()

let () = at_exit drop_current

let set_default_size n =
  let n = max 1 n in
  if n <> !wanted then begin
    wanted := n;
    drop_current ()
  end

let default () =
  match !current with
  | Some p -> p
  | None ->
    let p = create ~domains:!wanted () in
    current := Some p;
    p
