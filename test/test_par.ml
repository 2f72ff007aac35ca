(* The domain worker pool: ordered reduction, deterministic exception
   propagation, and — the contract every parallel pipeline stage leans
   on — byte-identical results at any pool width. *)

open Sc_par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool n f =
  let pool = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_ordered () =
  with_pool 4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun i -> i * i) xs)
    (Pool.map_list pool (fun i -> i * i) xs)

let test_sequential_pool () =
  with_pool 1 @@ fun pool ->
  check_int "one domain" 1 (Pool.size pool);
  Alcotest.(check (list int)) "runs in the caller" [ 0; 1; 4; 9 ]
    (Pool.map_list pool (fun i -> i * i) [ 0; 1; 2; 3 ])

let test_size_clamped () =
  with_pool 0 @@ fun pool -> check_int "clamped to 1" 1 (Pool.size pool)

let test_empty_batch () =
  with_pool 4 @@ fun pool ->
  check_int "empty run" 0 (List.length (Pool.run pool []))

exception Boom of int

let test_earliest_exception_wins () =
  with_pool 4 @@ fun pool ->
  let tasks =
    List.init 40 (fun i () -> if i = 7 || i = 31 then raise (Boom i) else i)
  in
  (match Pool.run pool tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "earliest failing task wins" 7 i);
  (* a failed batch must not wedge the pool *)
  Alcotest.(check (list int)) "pool survives the failure" [ 2; 4; 6 ]
    (Pool.map_list pool (fun i -> 2 * i) [ 1; 2; 3 ])

(* --- byte-identical pipeline stages at any width --- *)

let small_circuit () =
  let open Sc_netlist in
  let b = Builder.create "blk" in
  let xs = Builder.input b "x" 4 in
  let ys = Builder.input b "y" 4 in
  let sums, cout = Builder.adder b xs ys in
  Builder.output b "sum" sums;
  Builder.output b "co" [| cout |];
  Builder.finish b

let dirty_cell () =
  let open Sc_geom in
  let open Sc_tech in
  let open Sc_layout in
  Cell.make ~name:"dirty"
    [ Cell.box Layer.Poly (Rect.make 0 0 1 10) (* narrow *)
    ; Cell.box Layer.Metal (Rect.make 0 20 10 23)
    ; Cell.box Layer.Metal (Rect.make 0 25 10 28) (* too close *)
    ; Cell.box Layer.Diffusion (Rect.make 20 0 24 4)
    ; Cell.box Layer.Poly (Rect.make 24 0 28 4) (* abutment *)
    ; Cell.box Layer.Contact (Rect.make 40 0 42 2)
    ; Cell.box Layer.Metal (Rect.make 40 0 43 3) (* bad enclosure *)
    ]

let test_drc_identical_across_widths () =
  let c = dirty_cell () in
  let seq = with_pool 1 (fun pool -> Sc_drc.Checker.check ~pool c) in
  check_bool "the cell is dirty" true (List.length seq > 0);
  List.iter
    (fun n ->
      let par = with_pool n (fun pool -> Sc_drc.Checker.check ~pool c) in
      check_bool (Printf.sprintf "same violation list at %d domains" n) true
        (par = seq))
    [ 2; 4; 8 ]

let test_placement_cif_identical_across_widths () =
  let p = Sc_place.Placer.problem_of_circuit (small_circuit ()) in
  let cif n =
    with_pool n @@ fun pool ->
    Sc_cif.Emit.to_string
      (Sc_place.Placer.to_layout ~name:"blk"
         (Sc_place.Placer.best_of ~pool ~seeds:5 p))
  in
  let seq = cif 1 in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "same CIF at %d domains" n) true
        (String.equal seq (cif n)))
    [ 2; 4 ]

let test_equiv_cones_across_widths () =
  let c = small_circuit () in
  let o = Sc_netlist.Optimize.simplify c in
  List.iter
    (fun n ->
      with_pool n @@ fun pool ->
      match Sc_equiv.Checker.check_cones ~pool c o with
      | Sc_equiv.Checker.Equivalent -> ()
      | v ->
        Alcotest.failf "equivalent at %d domains expected, got %a" n
          Sc_equiv.Checker.pp_verdict v)
    [ 1; 4 ];
  (* a real difference reports the same first output port at any width *)
  let bad = Sc_equiv.Checker.mutate (Sc_netlist.Circuit.flatten c) 0 in
  let port n =
    with_pool n @@ fun pool ->
    match Sc_equiv.Checker.check_cones ~pool c bad with
    | Sc_equiv.Checker.Not_equivalent cex ->
      (cex.Sc_equiv.Checker.output, cex.Sc_equiv.Checker.bit)
    | Sc_equiv.Checker.Equivalent -> Alcotest.fail "mutation missed"
  in
  let o1, b1 = port 1 and o4, b4 = port 4 in
  Alcotest.(check string) "same differing port" o1 o4;
  check_int "same differing bit" b1 b4

(* --- concurrent batches on one pool --- *)

(* a one-shot gate: [wait] blocks until [open_] *)
type gate = { m : Mutex.t; c : Condition.t; mutable is_open : bool }

let gate () = { m = Mutex.create (); c = Condition.create (); is_open = false }

let open_ g =
  Mutex.protect g.m (fun () ->
      g.is_open <- true;
      Condition.broadcast g.c)

let wait g =
  Mutex.protect g.m (fun () ->
      while not g.is_open do
        Condition.wait g.c g.m
      done)

(* Batch Y's caller records; batch X's caller helps by running one of
   Y's tasks.  That domain is neither Y's caller nor a pool worker, and
   ranking it used to raise Not_found out of [Pool.run].  The helper is
   counted on the caller side, rank 0. *)
let test_helping_caller_ranked_as_caller () =
  with_pool 2 @@ fun pool ->
  let x_caller = Atomic.make (-1) in
  let x_started = Atomic.make 0 in
  let release_x_caller = gate () and release_worker = gate () in
  let y1_ran = gate () in
  let xs_busy = gate () in
  let x_task () =
    let me = (Domain.self () :> int) in
    if Atomic.fetch_and_add x_started 1 = 1 then open_ xs_busy;
    wait (if me = Atomic.get x_caller then release_x_caller else release_worker)
  in
  let x =
    Domain.spawn (fun () ->
        Atomic.set x_caller (Domain.self () :> int);
        Pool.run pool [ x_task; x_task ])
  in
  (* both X tasks now hold the worker and X's caller *)
  wait xs_busy;
  let rec_ = Sc_obs.Obs.Recorder.create () in
  Sc_obs.Obs.Recorder.enable rec_;
  let y =
    Domain.spawn (fun () ->
        Sc_obs.Obs.with_recorder rec_ (fun () ->
            Pool.run pool
              [ (fun () ->
                  (* only X's caller is freed, so it takes y1 *)
                  open_ release_x_caller;
                  wait y1_ran;
                  open_ release_worker;
                  0)
              ; (fun () ->
                  let by = (Domain.self () :> int) in
                  open_ y1_ran;
                  by)
              ]))
  in
  let ys = Domain.join y in
  ignore (Domain.join x);
  check_int "y1 ran on X's caller" (Atomic.get x_caller) (List.nth ys 1);
  check_int "both Y tasks on rank 0" 2
    (Option.value ~default:0
       (List.assoc_opt "pool.d0.tasks" (Sc_obs.Obs.Recorder.totals rec_)))

(* --- single-flight --- *)

let test_single_flight_once () =
  let sf = Single_flight.create () in
  let runs = Atomic.make 0 in
  let entered = gate () and release = gate () in
  let compute () =
    Atomic.incr runs;
    open_ entered;
    wait release;
    42
  in
  let first = Domain.spawn (fun () -> Single_flight.run sf "k" compute) in
  wait entered;
  (* the flight is now in the air: every later caller joins it *)
  let arrived = Atomic.make 0 in
  let joiners =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            Single_flight.run sf "k" compute))
  in
  while Atomic.get arrived < 3 do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.05;
  open_ release;
  let v, computed = Domain.join first in
  check_int "value" 42 v;
  check_bool "first caller computed" true computed;
  List.iter
    (fun d ->
      let v, computed = Domain.join d in
      check_int "joiner value" 42 v;
      check_bool "joiner did not compute" false computed)
    joiners;
  check_int "computed once" 1 (Atomic.get runs);
  (* the entry is gone once the flight lands *)
  check_bool "later call computes again" true
    (snd (Single_flight.run sf "k" (fun () -> 7)))

exception Flight_failed

let test_single_flight_exception () =
  let sf = Single_flight.create () in
  let entered = gate () and release = gate () in
  let failing () =
    open_ entered;
    wait release;
    raise Flight_failed
  in
  let outcome d =
    match Domain.join d with
    | _ -> "value"
    | exception Flight_failed -> "raised"
  in
  let first = Domain.spawn (fun () -> Single_flight.run sf 1 failing) in
  wait entered;
  let arrived = Atomic.make false in
  let joiner =
    Domain.spawn (fun () ->
        Atomic.set arrived true;
        Single_flight.run sf 1 failing)
  in
  while not (Atomic.get arrived) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.05;
  open_ release;
  Alcotest.(check string) "computing caller sees it" "raised" (outcome first);
  Alcotest.(check string) "waiter sees it" "raised" (outcome joiner);
  Alcotest.(check (pair int bool)) "a later call computes again" (5, true)
    (Single_flight.run sf 1 (fun () -> 5))

let test_single_flight_keys_independent () =
  let sf = Single_flight.create () in
  let entered = gate () and release = gate () in
  let slow =
    Domain.spawn (fun () ->
        Single_flight.run sf "slow" (fun () ->
            open_ entered;
            wait release;
            1))
  in
  wait entered;
  (* "slow" is still in the air; another key must not wait for it *)
  Alcotest.(check (pair int bool)) "other key runs now" (2, true)
    (Single_flight.run sf "fast" (fun () -> 2));
  open_ release;
  Alcotest.(check (pair int bool)) "slow key lands" (1, true)
    (Domain.join slow)

let suite =
  [ Alcotest.test_case "map keeps submission order" `Quick test_map_ordered
  ; Alcotest.test_case "size-1 pool is sequential" `Quick test_sequential_pool
  ; Alcotest.test_case "size clamps to 1" `Quick test_size_clamped
  ; Alcotest.test_case "empty batch" `Quick test_empty_batch
  ; Alcotest.test_case "earliest exception wins" `Quick
      test_earliest_exception_wins
  ; Alcotest.test_case "DRC identical at any width" `Quick
      test_drc_identical_across_widths
  ; Alcotest.test_case "placement CIF identical at any width" `Quick
      test_placement_cif_identical_across_widths
  ; Alcotest.test_case "equiv cones identical at any width" `Quick
      test_equiv_cones_across_widths
  ; Alcotest.test_case "helping caller ranked as caller" `Quick
      test_helping_caller_ranked_as_caller
  ; Alcotest.test_case "single-flight computes once" `Quick
      test_single_flight_once
  ; Alcotest.test_case "single-flight shares exceptions" `Quick
      test_single_flight_exception
  ; Alcotest.test_case "single-flight keys independent" `Quick
      test_single_flight_keys_independent
  ]
