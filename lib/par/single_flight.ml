type 'v flight = { mutable landed : ('v, exn) result option }

type ('k, 'v) t =
  { lock : Mutex.t
  ; landed : Condition.t  (* broadcast whenever any flight lands *)
  ; flights : ('k, 'v flight) Hashtbl.t
  }

let create () =
  { lock = Mutex.create ()
  ; landed = Condition.create ()
  ; flights = Hashtbl.create 8
  }

let settle = function
  | Ok v -> v
  | Error e -> raise e

let run t key compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.flights key with
  | Some f ->
    let rec await () =
      match f.landed with
      | Some r -> r
      | None ->
        Condition.wait t.landed t.lock;
        await ()
    in
    let r = await () in
    Mutex.unlock t.lock;
    (settle r, false)
  | None ->
    let f = { landed = None } in
    Hashtbl.add t.flights key f;
    Mutex.unlock t.lock;
    let r = match compute () with v -> Ok v | exception e -> Error e in
    Mutex.protect t.lock (fun () ->
        f.landed <- Some r;
        Hashtbl.remove t.flights key;
        Condition.broadcast t.landed);
    (settle r, true)
