(* What every workload shares: timing, set-up repetition, the output
   checks, and turning samples and spans into named metrics. *)

module P = Sc_pipeline.Pipeline
module Obs = Sc_obs.Obs
module Metrics = Sc_metrics.Metrics

let now = Trace.now
let pool_width = 2
let run_dir = Filename.concat "perfbench" "_run"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- metrics ---------------------------------------------------------- *)

type metric =
  { name : string
  ; value : float
  ; unit_ : string
  }

let m name unit_ value = { name; value; unit_ }

type outcome =
  { attempted : int
  ; failed : int
  ; checks_ok : bool  (** checks that are not tied to one op *)
  ; metrics : metric list
  ; notes : string list  (** sample counts, size ranges, trace file *)
  }

(* --- timed ops -------------------------------------------------------- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.)

(* The process's peak resident memory so far (VmHWM), in MB; where
   /proc is missing, the OCaml heap's high-water mark. *)
let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
            match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
            | kb -> Some (float_of_int kb /. 1000.)
            | exception _ -> find ())
        in
        find ())
  with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run [round i] for i = 0 .. n-1 and return every round's ops and the
   wall time of the whole region.  [n] is [seconds] over the workload's
   nominal round length (at least [min]): a fixed count, not a deadline,
   so every run does the same ops whatever the host's speed, and about
   [seconds] of them on a host as fast as the one the nominal lengths
   were measured on. *)
let rounds ?(min = 1) ~nominal ~seconds round =
  let n = max min (Float.to_int (Float.round (seconds /. nominal))) in
  let t0 = now () in
  let ops = List.init n round in
  (List.concat ops, now () -. t0)

(* Set-up runs [reps] times; its reported time is the median. *)
let setup_median ?(reps = 3) f = Stats.median (List.init reps (fun _ -> f ()))

(* Pool start and library warm-up: the process-default pool at the
   benchmark's width and one compile down each front door, with the
   stage cache off and empty.  The pdp8 compile also grows the heap to
   its working size, so the first timed round runs as fast as the
   rest. *)
let warm_up () =
  let t0 = now () in
  Sc_par.Pool.set_default_size 1;
  Sc_par.Pool.set_default_size pool_width;
  ignore (Sc_par.Pool.default ());
  P.disable_cache ();
  P.clear_caches ();
  List.iter
    (fun j -> ignore (Job.compile j))
    [ Job.job ~front:Job.Gates "pdp8" Sc_core.Designs.pdp8_src
    ; Job.job ~front:Job.Pla "seqdet" Sc_core.Designs.seqdet_src
    ; Job.job ~front:Job.Verilog "counter12" (read_file "examples/counter12.v")
    ; Job.job ~front:Job.Layout "array" (Gen.cell_array ~seed:0 ~salt:0 ~nx:2 ~ny:2 ~per_tile:2)
    ];
  now () -. t0

let latency_metrics ms =
  let n = List.length ms in
  (* samples ranked above a percentile's interpolation point *)
  let above p = n - 1 - int_of_float (Float.floor (p *. float_of_int (n - 1))) in
  ( [ m "latency_ms.p50" "ms" (Stats.percentile 50. ms)
    ; m "latency_ms.p90" "ms" (Stats.percentile 90. ms)
    ; m "latency_ms.p99" "ms" (Stats.percentile 99. ms)
    ]
  , [ Printf.sprintf "latency samples: %d (%d above p90, %d above p99)" n (above 0.9) (above 0.99) ] )

(* The end-to-end set every workload reports with tracing off. *)
let end_to_end ~setup_s ~ops ~wall_s ~latencies ~peak_mb ~qor:(area, hpwl, tracks) =
  let lat, notes = latency_metrics latencies in
  ( [ m "setup_s" "s" setup_s; m "ops_per_s" "1/s" (float_of_int ops /. wall_s) ]
    @ lat
    @ [ m "peak_heap_mb" "MB" peak_mb
      ; m "qor.area" "lambda2" area
      ; m "qor.hpwl" "lambda" hpwl
      ; m "qor.tracks" "count" tracks
      ]
  , notes )

(* --- output checks ---------------------------------------------------- *)

(* Problems found by the checks, reported on stderr.  A problem tied to
   a design fails every op of that design. *)
let problems = ref []

let problem fmt = Printf.ksprintf (fun s -> prerr_endline ("check: " ^ s); problems := s :: !problems) fmt

(* Runs [f] with the process-default pool at [width]. *)
let with_width width f =
  let before = Sc_par.Pool.default_size () in
  Sc_par.Pool.set_default_size width;
  Fun.protect ~finally:(fun () -> Sc_par.Pool.set_default_size before) f

(* An untimed instrumented compile: the QoR snapshot [scc ... --metrics]
   writes at its default [-j 1], as the committed baselines were made,
   and the result it came with. *)
let snapshot (j : Job.job) =
  with_width 1 @@ fun () ->
  let recorder = Obs.Recorder.create () in
  Obs.Recorder.enable recorder;
  let r = Job.compile ~recorder j in
  Obs.Recorder.disable recorder;
  (r, Metrics.capture ~recorder ~design:j.name ())

let qor_of snap key = Option.value ~default:0. (List.assoc_opt key snap.Metrics.qor)

(* Checks one design with the stage cache off: a fresh compile must
   match every timed op's output and be DRC-clean; builtins must
   reproduce their committed QoR baseline; generated flat ISP designs
   must agree with the RTL interpreter; layout arrays must survive a CIF
   round trip.  Returns whether the design passed, the fresh compile's
   output and, when [qor] (the default), its QoR (area, hpwl, tracks)
   from an instrumented compile; without [qor] the fresh compile is a
   plain one and the baseline is not consulted. *)
let check_design ?(qor = true) (j : Job.job) (outs : Job.out list) =
  let compiled, snap =
    if qor then
      let r, s = snapshot j in
      (r, Some s)
    else (Job.compile j, None)
  in
  match compiled with
  | Error e ->
    problem "%s: %s" j.name e;
    (false, None, (0., 0., 0.))
  | Ok (c, circuit) ->
    let fresh = Job.out_of c in
    let ok = ref true in
    let bad fmt = Printf.ksprintf (fun s -> ok := false; problem "%s: %s" j.name s) fmt in
    if not (List.for_all (Job.same fresh) outs) then bad "timed output differs from a fresh compile";
    (match snap with
    | Some snap when j.baseline -> (
      let path = Filename.concat (Filename.concat "bench" "baselines") (j.name ^ ".json") in
      match Metrics.read path with
      | Error e -> bad "baseline %s: %s" path e
      | Ok base ->
        if Metrics.qor_string base <> Metrics.qor_string snap then bad "QoR differs from %s" path)
    | _ -> ());
    if c.drc_violations <> 0 then bad "%d DRC violations" c.drc_violations;
    (match (j.stim, circuit) with
    | Some stim, Some circuit -> (
      match Sc_rtl.Parser.parse j.src with
      | Ok design ->
        if not (Sc_synth.Synth.verify_against_interp design circuit 64 stim) then
          bad "netlist disagrees with the RTL interpreter"
      | Error e -> bad "parse: %s" e)
    | _ -> ());
    if j.front = Job.Layout && not (Sc_cif.Elaborate.roundtrip_ok c.layout) then
      bad "CIF round trip changed the geometry";
    ( !ok
    , Some fresh
    , match snap with
      | Some s -> (qor_of s "area", qor_of s "place.hpwl", qor_of s "route.tracks")
      | None -> (0., 0., 0.) )

(* The pair every workload reproduces: compiled cold at pool width 1
   here, it must equal what the workload's own path produced for it (a
   cold compile at width 2, a rebuild from the disk cache, a daemon
   reply), so all four workloads agree with each other. *)
let reference_job () =
  Job.job ~restarts:1 ~front:Job.Gates "alu4" Sc_core.Designs.alu_src

(* leaves the stage cache disabled *)
let reference_out () =
  P.disable_cache ();
  match with_width 1 (fun () -> Job.compile (reference_job ())) with
  | Ok (c, _) -> Some (Job.out_of c)
  | Error e ->
    problem "reference pair: %s" e;
    None

let check_reference ~what out =
  match (reference_out (), out) with
  | Some a, Some b when Job.same a b -> true
  | Some _, Some _ ->
    problem "reference pair: %s differs from a cold width-1 compile" what;
    false
  | _, None ->
    problem "reference pair: %s produced nothing" what;
    false
  | None, _ -> false

(* --- per-layer metrics from spans ------------------------------------- *)

let layers =
  [ "rtl.parse"; "verilog.parse"; "lang.elaborate"; "synth.translate"; "synth.optimize"
  ; "synth.pla"; "place"; "route"; "drc"; "cif.emit"; "cif.parse"; "layout.measure"
  ; "chip.split"; "chip.assemble"; "equiv.certify"; "extract"; "pipeline"; "serve"
  ]

(* Self time per op and minor-heap allocation per op for every layer;
   0 for a layer the workload never calls. *)
let layer_metrics ~ops spans =
  let selfs = Trace.self_times spans in
  let per_op x = x /. float_of_int (max 1 ops) in
  List.concat_map
    (fun layer ->
      let mine = List.filter (fun ((s : Trace.span), _) -> s.name = layer) selfs in
      let self = Stats.sum (List.map snd mine) in
      let alloc = Stats.sum (List.map (fun ((s : Trace.span), _) -> s.minor_words) mine) in
      (if layer = "pipeline" || layer = "serve" then []
       else [ m (layer ^ ".ms") "ms" (per_op (self *. 1000.)) ])
      @ [ m (layer ^ ".alloc_mw") "Mword" (per_op (alloc /. 1e6)) ])
    layers

(* Self time of [layer] per op, per op id. *)
let layer_ms_by_op spans layer =
  let t = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      if s.name = layer then
        Hashtbl.replace t s.op (self *. 1000. +. Option.value ~default:0. (Hashtbl.find_opt t s.op)))
    (Trace.self_times spans);
  t

(* Log-log slope of a layer's time against a size, one point per
   design (the median over its ops), with the size range it spans. *)
let slope_metrics name spans ~layer ~ops =
  let by_op = layer_ms_by_op spans layer in
  let per_design = Hashtbl.create 16 in
  List.iter
    (fun (op, design, size) ->
      match Hashtbl.find_opt by_op op with
      | Some ms when size > 0 ->
        let sz, l = Option.value ~default:(size, []) (Hashtbl.find_opt per_design design) in
        Hashtbl.replace per_design design (sz, ms :: l)
      | _ -> ())
    ops;
  let points =
    Hashtbl.fold (fun _ (size, l) acc -> (float_of_int size, Stats.median l) :: acc) per_design []
  in
  let sizes = List.map fst points in
  let lo = List.fold_left Float.min infinity sizes and hi = List.fold_left Float.max 0. sizes in
  match Stats.loglog_slope points with
  | Some s ->
    ( [ m (name ^ ".slope") "exponent" s
      ; m (name ^ ".slope_lo") "size" lo
      ; m (name ^ ".slope_hi") "size" hi
      ]
    , [ Printf.sprintf "%s.slope over %d designs, sizes %.0f..%.0f" name (List.length points) lo hi ] )
  | None -> ([ m (name ^ ".slope") "exponent" 0.; m (name ^ ".slope_lo") "size" 0.; m (name ^ ".slope_hi") "size" 0. ], [])

(* Stage-cache counters summed over every pass. *)
type cache_totals =
  { hits : int
  ; disk_hits : int
  ; misses : int
  }

let cache_totals () =
  List.fold_left
    (fun a (_, (s : Sc_cache.Cache.stats)) ->
      { hits = a.hits + s.hits; disk_hits = a.disk_hits + s.disk_hits; misses = a.misses + s.misses })
    { hits = 0; disk_hits = 0; misses = 0 }
    (P.cache_stats ())

(* hit ratios and misses per op over (before, after) totals of each op *)
let cache_metrics ~ops deltas =
  let sum f = List.fold_left (fun acc ((a : cache_totals), (b : cache_totals)) -> acc + f b - f a) 0 deltas in
  let hits = sum (fun t -> t.hits) and disk = sum (fun t -> t.disk_hits) and miss = sum (fun t -> t.misses) in
  let lookups = float_of_int (max 1 (hits + disk + miss)) in
  [ m "cache.hit_ratio" "ratio" (float_of_int hits /. lookups)
  ; m "cache.disk_hit_ratio" "ratio" (float_of_int disk /. lookups)
  ; m "cache.misses" "count/op" (float_of_int miss /. float_of_int (max 1 ops))
  ]

let ran_passes () =
  List.length (List.filter (fun (_, st) -> st = P.Ran) (P.log ()))

let gc_metrics ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  let per_op x = x /. float_of_int (max 1 ops) in
  [ m "pool.width" "domains" (float_of_int (Sc_par.Pool.default_size ()))
  ; m "gc.minor_mw" "Mword/op" (per_op ((g1.minor_words -. g0.minor_words) /. 1e6))
  ; m "gc.major_collections" "count/op"
      (per_op (float_of_int (g1.major_collections - g0.major_collections)))
  ]

let write_trace ~workload ~seed =
  mkdir_p run_dir;
  let path = Filename.concat run_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Trace.write_chrome path (Trace.all ());
  path

(* --- the metric catalogue --------------------------------------------- *)

(* Every end-to-end metric, reported with tracing off. *)
let end_to_end_names =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_ms.p50", "ms"); ("latency_ms.p90", "ms")
  ; ("latency_ms.p99", "ms"); ("peak_heap_mb", "MB"); ("qor.area", "lambda2"); ("qor.hpwl", "lambda")
  ; ("qor.tracks", "count")
  ]

(* Every per-layer metric, reported by the traced run; a workload that
   never calls a layer reports its metrics as 0. *)
let per_layer_names =
  List.concat_map
    (fun l ->
      (if l = "pipeline" || l = "serve" then [] else [ (l ^ ".ms", "ms") ]) @ [ (l ^ ".alloc_mw", "Mword") ])
    layers
  @ [ ("synth.optimize.kept_ratio", "ratio"); ("drc.rects", "rects/op"); ("drc.rects_per_ms", "rects/ms")
    ; ("cif.emit.bytes", "bytes/op"); ("equiv.certify.nodes", "nodes/op"); ("extract.devices", "devices/op")
    ; ("pipeline.overhead_ms", "ms"); ("pipeline.all_hit_ms", "ms"); ("pipeline.reran_passes", "passes/op")
    ; ("cache.hit_ratio", "ratio"); ("cache.disk_hit_ratio", "ratio"); ("cache.misses", "count/op")
    ; ("serve.rtt_ms", "ms"); ("serve.server_ms", "ms"); ("serve.wire_ms", "ms"); ("serve.exec_ratio", "ratio")
    ; ("serve.dedup_ratio", "ratio"); ("serve.peak_executions", "count"); ("metrics.capture_ms", "ms")
    ; ("pool.width", "domains"); ("gc.minor_mw", "Mword/op"); ("gc.major_collections", "count/op")
    ; ("trace.overhead_ratio", "ratio"); ("fail_ratio", "ratio")
    ]
  @ List.concat_map
      (fun l -> [ (l ^ ".slope", "exponent"); (l ^ ".slope_lo", "size"); (l ^ ".slope_hi", "size") ])
      [ "drc"; "place"; "layout.measure"; "extract" ]

(* The catalogue's metrics in its order, from what a workload measured.
   A measured metric outside the catalogue is a bug in the benchmark. *)
let complete ~trace metrics =
  let names = if trace then per_layer_names else end_to_end_names in
  List.iter
    (fun x -> if not (List.mem_assoc x.name names) then failwith ("metric outside the catalogue: " ^ x.name))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) metrics with
      | Some x when x.unit_ = unit_ -> x
      | Some x -> failwith (Printf.sprintf "metric %s in %s, catalogued in %s" name x.unit_ unit_)
      | None -> m name unit_ 0.)
    names
