(* The cold and signoff workloads: every op compiles one design from
   scratch through the facade, with the stage cache off and cleared, as
   a fresh [scc isp] does.  A signoff op also certifies the optimizer,
   reads the CIF back, DRC-checks the read-back geometry and extracts
   its transistors.  The traced run follows each facade op with the same
   design driven layer by layer under spans. *)

module P = Sc_pipeline.Pipeline

type mode =
  | Cold
  | Signoff

let designs mode ~seed =
  match mode with
  | Cold ->
    Inputs.
      [ counter (); traffic (); alu4 (); pdp8 (); system (); counter12 (); traffic_pla ()
      ; seqdet_pla ()
      ]
    (* three rf2x4 variants put the middle of the latency distribution
       on one size class, so p50 is a median of several samples *)
    @ List.map (fun v -> Inputs.rf ~variant:v ~seed (2, 4)) [ 1; 2; 3 ]
    @ List.map (Inputs.rf ~seed) [ (2, 8); (4, 4); (4, 8); (8, 8); (8, 12) ]
    @ List.map (Inputs.cell_array ~seed) [ (8, 4, 3); (16, 8, 4); (32, 16, 4) ]
  | Signoff ->
    Inputs.[ counter (); alu4 (); pdp8 () ]
    @ List.map (Inputs.datapath ~seed) [ (2, 2); (2, 4); (2, 8); (4, 4); (4, 8); (4, 12) ]

(* the seeded draw: each round visits every design once, in its own
   order *)
let order ~seed ~round n =
  let st = Gen.rng ~seed ~salt:(1000 + round) in
  List.init n (fun i -> (Random.State.bits st, i)) |> List.sort compare |> List.map snd

(* what a signoff op's check compares against the compile *)
type readback =
  { readback_drc : int
  ; devices : int
  }

let catch f = try f () with e -> Error (Printexc.to_string e)

(* One untraced op through the facade. *)
let facade_op mode (j : Job.job) () =
  P.clear_caches ();
  match mode with
  | Cold -> Result.map (fun (c, _) -> (Job.out_of c, None)) (Job.compile j)
  | Signoff ->
    catch (fun () ->
        match P.with_certify true (fun () -> Job.compile j) with
        | Error e -> Error e
        | Ok (c, _) -> (
          match Sc_cif.Elaborate.of_string c.cif with
          | Error e -> Error ("cif.parse: " ^ Sc_cif.Elaborate.error_to_string e)
          | Ok cell ->
            let drc = List.length (Sc_drc.Checker.check cell) in
            let net = Sc_extract.Extractor.extract cell in
            Ok
              ( Job.out_of c
              , Some { readback_drc = drc; devices = List.length net.Sc_extract.Extractor.devices } )))

(* The same op layer by layer, under spans. *)
let layered_op mode (j : Job.job) () =
  catch (fun () ->
      try
        let certify = mode = Signoff in
        let out, cif, fx = Layers.compile ~certify j in
        let rb =
          if certify then begin
            let readback_drc = Layers.signoff fx cif in
            Some { readback_drc; devices = fx.Layers.devices }
          end
          else None
        in
        Ok (out, rb, fx)
      with Layers.Failed e -> Error e)

type op =
  { id : int
  ; job : int
  ; ms : float
  ; facade : (Job.out * readback option, string) result
  ; reran : int  (** passes the facade ran *)
  ; layered : ((Job.out * readback option * Layers.facts, string) result * float) option
        (** traced runs: the decomposition and its wall time *)
  }

(* An op's own failure: a Diag, a read-back or extraction that
   disagrees with the compile, or (traced) a decomposition that does
   not reproduce the facade. *)
let op_error op =
  match op.facade with
  | Error e -> Some e
  | Ok (out, rb) -> (
    match rb with
    | Some r when r.readback_drc <> out.Job.drc ->
      Some (Printf.sprintf "read-back DRC %d, compile %d" r.readback_drc out.Job.drc)
    | Some r when r.devices <> out.Job.transistors ->
      Some (Printf.sprintf "extracted %d devices, compile counted %d transistors" r.devices out.Job.transistors)
    | _ -> (
      match op.layered with
      | Some (Error e, _) -> Some ("layered: " ^ e)
      | Some (Ok (lout, lrb, _), _) when not (Job.same lout out && lrb = rb) ->
        Some "layered compile does not reproduce the facade"
      | _ -> None))

(* The traced run's per-layer metrics. *)
let layer_metrics ~ops ~g0 ~g1 ~failed ~seed mode =
  let n = List.length ops in
  let spans = Trace.all () in
  let facts = List.filter_map (fun op -> match op.layered with Some (Ok (_, _, fx), _) -> Some (op, fx) | _ -> None) ops in
  let sumf f = Stats.sum (List.map (fun (op, fx) -> f op fx) facts) in
  let mean f = sumf f /. float_of_int (max 1 (List.length facts)) in
  let self_by_op = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      Hashtbl.replace self_by_op s.op (self +. Option.value ~default:0. (Hashtbl.find_opt self_by_op s.op)))
    (Trace.self_times spans);
  (* signoff checks the layout and its read-back: two DRC passes an op *)
  let drc_passes = match mode with Cold -> 1. | Signoff -> 2. in
  let rects_checked = sumf (fun _ fx -> drc_passes *. float_of_int fx.Layers.rects) in
  let drc_ms = Stats.sum (Hashtbl.fold (fun _ v acc -> v :: acc) (Bench.layer_ms_by_op spans "drc") []) in
  let sized f = List.map (fun (op, fx) -> (op.id, op.job, f fx)) facts in
  let rects fx = fx.Layers.rects in
  let slopes =
    List.map
      (fun (name, layer, size) -> Bench.slope_metrics name spans ~layer ~ops:(sized size))
      [ ("drc", "drc", rects)
      ; ("place", "place", fun fx -> fx.Layers.placed)
      ; ("layout.measure", "layout.measure", rects)
      ; ("extract", "extract", rects)
      ]
  in
  let layered_ms = Stats.sum (List.filter_map (fun op -> Option.map snd op.layered) ops) in
  let path = Bench.write_trace ~workload:(match mode with Cold -> "cold" | Signoff -> "signoff") ~seed in
  ( Bench.layer_metrics ~ops:n spans
    @ [ Bench.m "synth.optimize.kept_ratio" "ratio"
          (sumf (fun _ fx -> float_of_int fx.Layers.gates_out)
          /. Float.max 1. (sumf (fun _ fx -> float_of_int fx.Layers.gates_in)))
      ; Bench.m "drc.rects" "rects/op" (rects_checked /. float_of_int (max 1 (List.length facts)))
      ; Bench.m "drc.rects_per_ms" "rects/ms" (rects_checked /. Float.max 1e-9 drc_ms)
      ; Bench.m "cif.emit.bytes" "bytes/op" (mean (fun _ fx -> float_of_int fx.Layers.cif_bytes))
      ; Bench.m "equiv.certify.nodes" "nodes/op" (mean (fun _ fx -> float_of_int fx.Layers.cert_nodes))
      ; Bench.m "extract.devices" "devices/op" (mean (fun _ fx -> float_of_int fx.Layers.devices))
      ; Bench.m "pipeline.overhead_ms" "ms"
          (mean (fun op _ ->
               op.ms -. (1000. *. Option.value ~default:0. (Hashtbl.find_opt self_by_op op.id))))
      ; Bench.m "pipeline.reran_passes" "passes/op"
          (Stats.mean (List.map (fun op -> float_of_int op.reran) ops))
      ; Bench.m "trace.overhead_ratio" "ratio"
          (layered_ms /. Float.max 1e-9 (Stats.sum (List.map (fun op -> op.ms) ops)))
      ; Bench.m "fail_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 n))
      ]
    @ List.concat_map fst slopes
    @ Bench.gc_metrics ~ops:n g0 g1
  , List.concat_map snd slopes @ [ "trace written to " ^ path ] )

let run mode ~seed ~seconds ~trace =
  let jobs = Array.of_list (designs mode ~seed) in
  let setup_s = Bench.setup_median Bench.warm_up in
  let next_id = ref 0 in
  let g0 = Gc.quick_stat () in
  let round r =
    List.map
      (fun i ->
        let id = !next_id in
        incr next_id;
        P.reset_log ();
        let facade, ms = Bench.timed (facade_op mode jobs.(i)) in
        let reran = Bench.ran_passes () in
        let layered =
          if not trace then None
          else begin
            Trace.set_op id;
            Trace.enabled := true;
            let r = Bench.timed (layered_op mode jobs.(i)) in
            Trace.enabled := false;
            Some r
          end
        in
        { id; job = i; ms; facade; reran; layered })
      (order ~seed ~round:r (Array.length jobs))
  in
  (* a traced op runs twice: through the facade and layer by layer *)
  let nominal = (match mode with Cold -> 3.3 | Signoff -> 5.) *. if trace then 2. else 1. in
  let ops, wall_s = Bench.rounds ~nominal ~seconds round in
  let peak_mb = Bench.peak_rss_mb () and g1 = Gc.quick_stat () in
  (* --- checks, outside the timed region --- *)
  let op_ok =
    List.map
      (fun op ->
        match op_error op with
        | None -> true
        | Some e ->
          Bench.problem "%s: %s" jobs.(op.job).Job.name e;
          false)
      ops
  in
  let checked =
    Array.mapi
      (fun i j ->
        Bench.check_design j
          (List.filter_map
             (fun op -> if op.job = i then Result.to_option (Result.map fst op.facade) else None)
             ops))
      jobs
  in
  let reference =
    Bench.check_reference ~what:"the workload's compile"
      (Result.to_option (Result.map fst (facade_op mode (Bench.reference_job ()) ())))
  in
  let failed =
    List.length
      (List.filter (fun (op, ok) -> let design_ok, _, _ = checked.(op.job) in not (ok && design_ok)) (List.combine ops op_ok))
  in
  let attempted = List.length ops in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (j : Job.job) ->
           let ms = List.filter_map (fun op -> if op.job = i then Some op.ms else None) ops in
           Printf.sprintf "design %-14s %3d ops, median %9.3f ms" j.name (List.length ms) (Stats.median ms))
         jobs)
  in
  let metrics, notes =
    if not trace then
      Bench.end_to_end ~peak_mb ~setup_s ~ops:attempted ~wall_s
        ~latencies:(List.map (fun op -> op.ms) ops)
        ~qor:
          (Array.fold_left
             (fun (a, h, t) (_, _, (a', h', t')) -> (a +. a', h +. h', t +. t'))
             (0., 0., 0.) checked)
    else layer_metrics ~ops ~g0 ~g1 ~failed ~seed mode
  in
  { Bench.attempted; failed; checks_ok = reference; metrics; notes = rows @ notes }
