(* In-memory spans recorded by the benchmark around its calls into the
   program's layers.  A span has a name, start and end, the span that
   was open when it started (per thread), the op it belongs to, and the
   allocation done while it was open.  [Gc.quick_stat] deltas include
   worker domains, so pool-sharded work lands in the span that
   submitted it, but they only see a domain's minor words when its
   minor heap is collected; [Gc.minor_words] is exact for the calling
   domain alone.  A span's minor words are the larger of the two.
   Spans are written out as a Chrome trace when the run ends; self
   times are derived from them. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type span =
  { id : int
  ; name : string
  ; op : int
  ; parent : int  (** -1 at top level *)
  ; tid : int
  ; t0 : float  (** seconds *)
  ; t1 : float
  ; minor_words : float
  ; promoted_words : float
  ; major_collections : int
  }

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8
let current_op : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Every span opened on this thread until the next [set_op] belongs to
   op [n]. *)
let set_op n =
  let tid = Thread.id (Thread.self ()) in
  locked (fun () -> Hashtbl.replace current_op tid n)

let span name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent, op =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          Hashtbl.replace stacks tid (id :: stack);
          ( id
          , (match stack with p :: _ -> p | [] -> -1)
          , Option.value ~default:0 (Hashtbl.find_opt current_op tid) ))
    in
    let g0 = Gc.quick_stat () and own0 = Gc.minor_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let g1 = Gc.quick_stat () and own1 = Gc.minor_words () in
      locked (fun () ->
          (match Hashtbl.find_opt stacks tid with
          | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
          | _ -> ());
          spans :=
            { id
            ; name
            ; op
            ; parent
            ; tid
            ; t0
            ; t1
            ; minor_words = Float.max (own1 -. own0) (g1.Gc.minor_words -. g0.Gc.minor_words)
            ; promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words
            ; major_collections = g1.Gc.major_collections - g0.Gc.major_collections
            }
            :: !spans)
    in
    Fun.protect ~finally:finish f
  end

let all () = locked (fun () -> List.rev !spans)

(* Duration minus the time covered by direct children (children of one
   thread's span never overlap each other). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, Float.max 0. (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id))))
    spans

let write_chrome path spans =
  let module J = Sc_obs.Json in
  let epoch = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  let num f = J.Num f in
  let events =
    List.map
      (fun s ->
        J.Obj
          [ ("name", J.Str s.name)
          ; ("ph", J.Str "X")
          ; ("pid", num 1.)
          ; ("tid", num (float_of_int s.tid))
          ; ("ts", num (Float.round ((s.t0 -. epoch) *. 1e7) /. 10.))
          ; ("dur", num (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.))
          ; ( "args"
            , J.Obj
                [ ("id", num (float_of_int s.id))
                ; ("parent", num (float_of_int s.parent))
                ; ("op", num (float_of_int s.op))
                ; ("minor_words", num s.minor_words)
                ; ("promoted_words", num s.promoted_words)
                ; ("major_collections", num (float_of_int s.major_collections))
                ] )
          ])
      spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string (J.Obj [ ("traceEvents", J.Arr events) ])))
