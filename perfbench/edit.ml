(* The edit workload: rebuilds after seeded edits with a disk stage
   cache, the way successive [scc --stage-cache DIR] processes see it.
   The in-memory stores are cleared before every rebuild, so unchanged
   passes come back from disk and only what an edit touches runs.  The
   edits are a no-op rebuild, a restarts change, a one-line change to a
   flat design and a one-line change to one module of a multi-module
   chip. *)

module P = Sc_pipeline.Pipeline

(* A design under edit: its current source and restarts. *)
type design =
  { name : string
  ; mutable src : string
  ; mutable restarts : int
  ; mutable stim : (int -> (string * int) list) option
  }

type kind =
  | Noop
  | Restarts
  | Flat_edit
  | Module_edit

let kind_name = function
  | Noop -> "noop"
  | Restarts -> "restarts"
  | Flat_edit -> "flat-edit"
  | Module_edit -> "module-edit"

type op =
  { id : int
  ; round : int
  ; kind : kind
  ; job : Job.job
  ; ms : float
  ; out : (Job.out, string) result
  ; reran : int
  ; traced : bool
  ; hits : Bench.cache_totals * Bench.cache_totals  (** stage-cache totals before and after *)
  }

(* The edited designs.  Each edit gives the edited block a constant no
   earlier version had, so every real edit is new work. *)
type state =
  { flat : design
  ; flat_params : Gen.rf
  ; mutable flat_version : int
  ; chip : design
  ; mods : (string * Gen.rf) array
  ; versions : int array
  ; fixed : design  (** a builtin that is only ever rebuilt *)
  }

(* version 0 is the generated constant; each edit steps to another with
   the same popcount, so edits change logic, not the design's size *)
let constant (p : Gen.rf) version =
  if version = 0 then p.xor_const else Gen.half_set ~w:p.w (p.xor_const + version)

let flat_source st =
  let p = { st.flat_params with xor_const = constant st.flat_params st.flat_version } in
  st.flat.stim <- Some (Gen.rf_stim ~seed:st.flat_version p);
  Gen.rf_module ~name:st.flat.name p

let chip_source st =
  Gen.chip_source ~name:st.chip.name
    (Array.to_list
       (Array.mapi (fun i (n, (p : Gen.rf)) -> (n, { p with xor_const = constant p st.versions.(i) })) st.mods))

let init ~seed =
  let flat_params = Gen.rf_params ~seed ~salt:1 ~k:4 ~w:8 in
  let mods = Array.init 3 (fun i -> (Printf.sprintf "m%d" i, Gen.rf_params ~seed ~salt:(10 + i) ~k:2 ~w:4)) in
  let blank name = { name; src = ""; restarts = 0; stim = None } in
  let st =
    { flat = blank "rf4x8"
    ; flat_params
    ; flat_version = 0
    ; chip = blank "chip3"
    ; mods
    ; versions = Array.make 3 0
    ; fixed = { (blank "alu4") with src = Sc_core.Designs.alu_src }
    }
  in
  st.flat.src <- flat_source st;
  st.chip.src <- chip_source st;
  st

let job_of (d : design) = Job.job ?stim:d.stim ~restarts:d.restarts ~front:Job.Gates d.name d.src

(* One round: every edit kind, rebuilds in between.  Module edits visit
   the chip's modules in turn from a seeded first module. *)
let round_plan st ~first ~round =
  let flat_edit () =
    st.flat_version <- st.flat_version + 1;
    st.flat.src <- flat_source st;
    st.flat.restarts <- 0;
    st.flat
  in
  let restarts () =
    st.flat.restarts <- st.flat.restarts + 1;
    st.flat
  in
  let module_edit () =
    let i = (first + round) mod Array.length st.mods in
    st.versions.(i) <- st.versions.(i) + 1;
    st.chip.src <- chip_source st;
    st.chip
  in
  [ (Flat_edit, flat_edit)
  ; (Noop, fun () -> st.fixed)
  ; (Restarts, restarts)
  ; (Noop, fun () -> st.flat)
  ; (Module_edit, module_edit)
  ; (Noop, fun () -> st.chip)
  ; (Restarts, restarts)
  ]

let cache_dir rep = Filename.concat Bench.run_dir (Printf.sprintf "edit-cache-%d" rep)

(* The first cold fill of a fresh disk cache. *)
let fill st rep =
  let t0 = Bench.now () in
  Bench.mkdir_p (cache_dir rep);
  P.enable_cache ~dir:(cache_dir rep) ();
  P.clear_caches ();
  List.iter (fun d -> ignore (Job.compile (job_of d))) [ st.flat; st.chip; st.fixed ];
  Bench.now () -. t0

let run ~seed ~seconds ~trace =
  ignore (Bench.warm_up ());
  let st = init ~seed in
  let reps = ref 0 in
  let setup_s =
    Bench.setup_median (fun () ->
        incr reps;
        fill st !reps)
  in
  let next_id = ref 0 in
  let g0 = Gc.quick_stat () in
  let first = Random.State.int (Gen.rng ~seed ~salt:2000) (Array.length st.mods) in
  let round r =
    (* traced runs alternate plain and traced rounds; the ratio of
       their op times is the tracing overhead *)
    let traced = trace && r mod 2 = 1 in
    List.map
      (fun (kind, edit) ->
        let d = edit () in
        let job = job_of d in
        let id = !next_id in
        incr next_id;
        P.clear_caches ();
        P.reset_log ();
        let before = Bench.cache_totals () in
        Trace.set_op id;
        Trace.enabled := traced;
        let res, ms = Bench.timed (fun () -> Trace.span "pipeline" (fun () -> Job.compile job)) in
        Trace.enabled := false;
        let after = Bench.cache_totals () in
        { id
        ; round = r
        ; kind
        ; job
        ; ms
        ; out = Result.map (fun (c, _) -> Job.out_of c) res
        ; reran = Bench.ran_passes ()
        ; traced
        ; hits = (before, after)
        })
      (round_plan st ~first ~round:r)
  in
  (* a traced run needs a plain and a traced round *)
  let ops, wall_s = Bench.rounds ~min:(if trace then 2 else 1) ~nominal:1.25 ~seconds round in
  let peak_mb = Bench.peak_rss_mb () and g1 = Gc.quick_stat () in
  (* --- checks: the same pair rebuilt from disk, then every distinct
     (design, restarts) checked cold --- *)
  let reference =
    let j = Bench.reference_job () in
    ignore (Job.compile j);
    P.clear_caches ();
    Bench.check_reference ~what:"a rebuild from the disk cache"
      (Result.to_option (Result.map (fun (c, _) -> Job.out_of c) (Job.compile j)))
  in
  P.disable_cache ();
  P.clear_caches ();
  (* every distinct (design, restarts), with the round that first
     built it; QoR comes from the first round's pairs *)
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun op ->
      let k = Job.key op.job in
      let j, first, outs = Option.value ~default:(op.job, op.round, []) (Hashtbl.find_opt distinct k) in
      Hashtbl.replace distinct k (j, first, match op.out with Ok o -> o :: outs | Error _ -> outs))
    ops;
  let verdict = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k (j, first, outs) -> Hashtbl.replace verdict k (first, Bench.check_design ~qor:(first = 0) j outs))
    distinct;
  for i = 1 to !reps do
    Bench.rm_rf (cache_dir i)
  done;
  let failed =
    List.length
      (List.filter
         (fun op ->
           (match op.out with Error e -> Bench.problem "%s: %s" op.job.Job.name e | Ok _ -> ());
           let _, (ok, _, _) = Hashtbl.find verdict (Job.key op.job) in
           Result.is_error op.out || not ok)
         ops)
  in
  let attempted = List.length ops in
  let rows =
    List.map
      (fun kind ->
        let ms = List.filter_map (fun op -> if op.kind = kind then Some op.ms else None) ops in
        Printf.sprintf "edit %-12s %3d ops, median %9.3f ms" (kind_name kind) (List.length ms)
          (Stats.median ms))
      [ Noop; Restarts; Flat_edit; Module_edit ]
  in
  let metrics, notes =
    if not trace then begin
      (* QoR over the pairs the first round builds: the same set of
         designs whatever the number of rounds *)
      let qor =
        Hashtbl.fold
          (fun _ (first, (_, _, (a', h', t'))) (a, h, t) ->
            if first = 0 then (a +. a', h +. h', t +. t') else (a, h, t))
          verdict (0., 0., 0.)
      in
      Bench.end_to_end ~peak_mb ~setup_s ~ops:attempted ~wall_s ~latencies:(List.map (fun op -> op.ms) ops) ~qor
    end
    else begin
      let traced, plain = List.partition (fun op -> op.traced) ops in
      let mean_ms l = Stats.mean (List.map (fun op -> op.ms) l) in
      let path = Bench.write_trace ~workload:"edit" ~seed in
      ( Bench.layer_metrics ~ops:(List.length traced) (Trace.all ())
        @ [ Bench.m "pipeline.all_hit_ms" "ms" (mean_ms (List.filter (fun op -> op.kind = Noop) ops))
          ; Bench.m "pipeline.reran_passes" "passes/op"
              (Stats.mean (List.map (fun op -> float_of_int op.reran) ops))
          ; Bench.m "trace.overhead_ratio" "ratio" (mean_ms traced /. mean_ms plain)
          ; Bench.m "fail_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
          ]
        @ Bench.cache_metrics ~ops:attempted (List.map (fun op -> op.hits) ops)
        @ Bench.gc_metrics ~ops:attempted g0 g1
      , [ "trace written to " ^ path ] )
    end
  in
  { Bench.attempted; failed; checks_ok = reference; metrics; notes = rows @ notes }
