(* The serve workload: an in-process compile daemon ([Server.run], memory
   stage cache, its default one-domain pool, two execution domains)
   and two persistent client connections in a closed loop, each sending
   its next request when the previous reply arrives.  Most requests
   repeat a set compiled while priming the daemon; a few percent are
   novel sources (restarts variants of primed designs and freshly
   generated designs) that execute cold; a few percent are twins, new
   sources sent on both connections at once, which the daemon
   deduplicates. *)

module P = Sc_pipeline.Pipeline
module Proto = Sc_serve.Protocol
module Client = Sc_serve.Client

let connections = 2
let exec_domains = 2
let min_requests = 1000

(* novel and twin requests sit at fixed positions of each connection's
   stream, about 3% of requests each *)
let novel_every = 33
let twin_every = 30

let primed ~seed =
  Inputs.[ counter (); traffic (); alu4 (); system (); counter12 (); traffic_pla () ]
  @ [ Bench.reference_job (); Inputs.rf ~seed (2, 4); Inputs.datapath ~seed (2, 4) ]

let spec_of (j : Job.job) =
  { Proto.design = j.name
  ; source = j.src
  ; style = (match j.front with Job.Pla -> "pla" | Job.Verilog -> "verilog" | _ -> "gates")
  ; restarts = j.restarts
  ; certify = false
  }

(* a small generated design no other request has sent: its name, and
   so its source, is new *)
let fresh ~seed n =
  let p = Gen.rf_params ~seed ~salt:(3 + (n mod 2)) ~k:2 ~w:2 in
  let name = Printf.sprintf "fresh%d" n in
  if n mod 2 = 0 then Job.job ~stim:(Gen.rf_stim ~seed p) ~front:Job.Gates name (Gen.rf_module ~name p)
  else
    Job.job ~stim:(Gen.rf_stim ~datapath:true ~seed p) ~front:Job.Gates name
      (Gen.rf_module ~datapath:true ~name p)

(* What a reply is compared on (the daemon sends the CIF's size, not
   its text), and how many passes it ran; requests keep only this, not
   the reply with its snapshot. *)
let summary = function
  | Ok (Proto.Compiled c) ->
    Ok
      ( (c.Proto.area, c.Proto.transistors, c.Proto.cif_bytes, c.Proto.drc_violations)
      , List.length (List.filter (fun (_, st) -> st = "ran") c.Proto.passes) )
  | Ok (Proto.Error_reply { stage; message }) -> Error (stage ^ ": " ^ message)
  | Ok _ -> Error "unexpected reply"
  | Error e -> Error ("rpc: " ^ e)

type kind =
  | Repeat
  | Novel
  | Twin

type request =
  { conn : int
  ; kind : kind
  ; job : Job.job
  ; ms : float
  ; reply : ((int * int * int * int) * int, string) result  (** {!summary} *)
  ; traced : bool
  }

let socket rep = Filename.concat Bench.run_dir (Printf.sprintf "serve-%d.sock" rep)

let rpc fd req = try Client.rpc fd req with e -> Error (Printexc.to_string e)

let stats fd =
  match rpc fd Proto.Stats with
  | Ok (Proto.Stats_reply s) -> s.Proto.counters
  | _ -> []

let shutdown sock server =
  ignore (Client.one_shot sock Proto.Shutdown);
  Thread.join server

(* Daemon start until its socket answers, then priming: every primed
   design compiled once over one connection.  Returns the set-up time,
   the running daemon and the priming replies. *)
let start ~seed rep =
  let sock = socket rep in
  Bench.mkdir_p Bench.run_dir;
  P.disable_cache ();
  P.clear_caches ();
  let t0 = Bench.now () in
  let server =
    Thread.create
      (fun () ->
        ignore (Sc_serve.Server.run ~jobs:1 ~exec_domains ~handle_signals:false ~socket:sock ()))
      ()
  in
  let rec connect n =
    match if Sys.file_exists sock then Client.connect sock else Error "no socket" with
    | Ok fd -> fd
    | Error e ->
      if n = 0 then failwith ("daemon did not come up: " ^ e);
      Thread.delay 0.002;
      connect (n - 1)
  in
  let fd = connect 5000 in
  let replies = List.map (fun j -> (j, rpc fd (Proto.Compile (spec_of j)))) (primed ~seed) in
  Client.close fd;
  (Bench.now () -. t0, (sock, server), replies)

(* Two connections, closed loop, until [seconds] have passed and at
   least [min_requests] were answered. *)
let drive ~seed ~seconds ~trace sock primed =
  let primed = Array.of_list primed in
  let novel = Atomic.make 0 and answered = Atomic.make 0 in
  let restart_variants =
    List.concat_map (fun r -> List.map (fun (j : Job.job) -> { j with restarts = j.restarts + r }) (Array.to_list primed)) [ 1; 2 ]
    |> List.filter (fun v -> not (Array.exists (fun p -> Job.key p = Job.key v) primed))
    |> Array.of_list
  in
  let lock = Mutex.create () and cond = Condition.create () in
  let arrived = Hashtbl.create 16 and stopped = Array.make connections false in
  (* both connections send twin [t] together; a connection that has
     stopped no longer holds the other back *)
  let twin_barrier c t =
    Mutex.lock lock;
    Hashtbl.replace arrived t (1 + Option.value ~default:0 (Hashtbl.find_opt arrived t));
    Condition.broadcast cond;
    while Hashtbl.find arrived t < connections && not stopped.(1 - c) do
      Condition.wait cond lock
    done;
    Mutex.unlock lock
  in
  let t0 = Bench.now () in
  let results = Array.make connections [] in
  let conn c =
    let rng = Gen.rng ~seed ~salt:(3000 + c) in
    match Client.connect sock with
    | Error e -> failwith ("connect: " ^ e)
    | Ok fd ->
      let rec loop i acc =
        let elapsed = Bench.now () -. t0 in
        if elapsed >= seconds && Atomic.get answered >= min_requests then acc
        else begin
          let kind, job =
            if i mod twin_every = twin_every - 1 then begin
              let t = i / twin_every in
              twin_barrier c t;
              (Twin, fresh ~seed (1_000_000 + t))
            end
            else if i mod novel_every = novel_every / 2 then begin
              let n = Atomic.fetch_and_add novel 1 in
              (Novel, if n < Array.length restart_variants then restart_variants.(n) else fresh ~seed n)
            end
            else (Repeat, primed.(Random.State.int rng (Array.length primed)))
          in
          (* traced runs trace the second half; the first half is the
             untraced reference for the overhead ratio *)
          let traced = trace && elapsed >= seconds /. 2. in
          Trace.set_op ((c * 1_000_000) + i);
          let reply, ms =
            Bench.timed (fun () ->
                if traced then Trace.span "serve" (fun () -> rpc fd (Proto.Compile (spec_of job)))
                else rpc fd (Proto.Compile (spec_of job)))
          in
          let reply = summary reply in
          Atomic.incr answered;
          loop (i + 1) ({ conn = c; kind; job; ms; reply; traced } :: acc)
        end
      in
      let r = loop 0 [] in
      Mutex.lock lock;
      stopped.(c) <- true;
      Condition.broadcast cond;
      Mutex.unlock lock;
      Client.close fd;
      results.(c) <- List.rev r
  in
  Trace.enabled := trace;
  let threads = List.init connections (fun c -> Thread.create conn c) in
  List.iter Thread.join threads;
  Trace.enabled := false;
  (List.concat (Array.to_list results), Bench.now () -. t0)

let counter name counters = float_of_int (Option.value ~default:0 (List.assoc_opt name counters))

let run ~seed ~seconds ~trace =
  ignore (Bench.warm_up ());
  let reps = ref 0 and daemon = ref None and priming = ref [] in
  let setup_s =
    Bench.setup_median (fun () ->
        Option.iter (fun (sock, server) -> shutdown sock server) !daemon;
        incr reps;
        let s, d, replies = start ~seed !reps in
        daemon := Some d;
        priming := replies;
        s)
  in
  let sock, server = Option.get !daemon in
  let before, cache0, g0 =
    match Client.connect sock with
    | Ok fd ->
      let s = stats fd in
      Client.close fd;
      (s, Bench.cache_totals (), Gc.quick_stat ())
    | Error e -> failwith e
  in
  let requests, wall_s = drive ~seed ~seconds ~trace sock (List.map fst !priming) in
  let peak_mb = Bench.peak_rss_mb () and g1 = Gc.quick_stat () and cache1 = Bench.cache_totals () in
  let after = match Client.connect sock with Ok fd -> let s = stats fd in Client.close fd; s | Error _ -> [] in
  shutdown sock server;
  (* --- checks, outside the timed region --- *)
  (* the daemon's artifacts are still in the in-process memory store:
     rebuilding the reference pair reads back the CIF it emitted, which
     must match a cold width-1 compile, as must the reply itself *)
  let rebuilt = Result.to_option (Result.map (fun (c, _) -> Job.out_of c) (Job.compile (Bench.reference_job ()))) in
  let reference =
    Bench.check_reference ~what:"the daemon's artifacts" rebuilt
    && List.exists
         (fun (j, r) ->
           Job.key j = Job.key (Bench.reference_job ())
           &&
           match (summary r, rebuilt) with
           | Ok ((a, t, b, _), _), Some o -> a = o.Job.area && t = o.Job.transistors && b = o.Job.cif_bytes
           | _ -> false)
         !priming
  in
  if not reference then Bench.problem "reference pair: the daemon's reply differs";
  P.disable_cache ();
  P.clear_caches ();
  let verdict = Hashtbl.create 64 in
  let qor = ref (0., 0., 0.) in
  (* primed designs: the priming reply's snapshot against the baseline,
     and the QoR of the workload *)
  List.iter
    (fun ((j : Job.job), r) ->
      match r with
      | Ok (Proto.Compiled c) -> (
        match Sc_metrics.Metrics.of_json c.Proto.snapshot with
        | Error e -> Bench.problem "%s: bad snapshot: %s" j.name e
        | Ok snap ->
          let a, h, t = !qor in
          qor :=
            ( a +. Bench.qor_of snap "area"
            , h +. Bench.qor_of snap "place.hpwl"
            , t +. Bench.qor_of snap "route.tracks" );
          if j.baseline then
            match Sc_metrics.Metrics.read (Filename.concat (Filename.concat "bench" "baselines") (j.name ^ ".json")) with
            | Ok base when Sc_metrics.Metrics.qor_string base = Sc_metrics.Metrics.qor_string snap -> ()
            | _ -> Bench.problem "%s: daemon QoR differs from its baseline" j.name)
      | _ -> Bench.problem "%s: priming failed" j.name)
    !priming;
  (* every distinct request: a cold in-process compile must give the
     reply's area, transistors, CIF size and DRC count *)
  List.iter
    (fun rq ->
      let k = Job.key rq.job in
      if not (Hashtbl.mem verdict k) then begin
        let ok, expect, _ = Bench.check_design ~qor:false rq.job [] in
        Hashtbl.replace verdict k (ok, expect)
      end)
    requests;
  let failed =
    List.length
      (List.filter
         (fun rq ->
           let ok, expect = Hashtbl.find verdict (Job.key rq.job) in
           match (rq.reply, expect) with
           | Ok ((a, t, b, d), _), Some o when ok && a = o.Job.area && t = o.Job.transistors && b = o.Job.cif_bytes && d = o.Job.drc -> false
           | Ok _, _ ->
             Bench.problem "%s: reply differs from a cold compile" rq.job.Job.name;
             true
           | Error e, _ ->
             Bench.problem "%s: %s" rq.job.Job.name e;
             true)
         requests)
  in
  let attempted = List.length requests in
  let count k = List.length (List.filter (fun rq -> rq.kind = k) requests) in
  let rows =
    [ Printf.sprintf "requests: %d repeats, %d novel, %d twins over %d connections" (count Repeat) (count Novel)
        (count Twin) connections
    ]
  in
  let ms_of l = List.map (fun rq -> rq.ms) l in
  let metrics, notes =
    if not trace then
      Bench.end_to_end ~peak_mb ~setup_s ~ops:attempted ~wall_s ~latencies:(ms_of requests) ~qor:!qor
    else begin
      let delta k = counter k after -. counter k before in
      let rtt = Stats.median (ms_of requests) in
      let server_ms = counter "latency.compile.p50_us" after /. 1000. in
      let traced, plain = List.partition (fun rq -> rq.traced) requests in
      (* in-process all-hit rebuilds of the primed designs, once a
         first compile has refilled the memory store *)
      P.enable_cache ();
      List.iter (fun (j, _) -> ignore (Job.compile j)) !priming;
      let all_hit =
        Stats.mean
          (List.map
             (fun (j, _) -> Stats.median (List.init 5 (fun _ -> snd (Bench.timed (fun () -> Job.compile j)))))
             !priming)
      in
      let capture_ms =
        let recorder = Sc_obs.Obs.Recorder.create () in
        Sc_obs.Obs.Recorder.enable recorder;
        ignore (Job.compile ~recorder (Inputs.alu4 ()));
        Sc_obs.Obs.Recorder.disable recorder;
        Stats.median
          (List.init 20 (fun _ ->
               snd (Bench.timed (fun () -> Sc_metrics.Metrics.capture ~recorder ~design:"alu4" ()))))
      in
      P.disable_cache ();
      let ran = List.map (fun rq -> match rq.reply with Ok (_, n) -> float_of_int n | Error _ -> 0.) requests in
      let path = Bench.write_trace ~workload:"serve" ~seed in
      ( Bench.layer_metrics ~ops:(List.length traced) (Trace.all ())
        @ [ Bench.m "serve.rtt_ms" "ms" rtt
          ; Bench.m "serve.server_ms" "ms" server_ms
          ; Bench.m "serve.wire_ms" "ms" (rtt -. server_ms)
          ; Bench.m "serve.exec_ratio" "ratio" (delta "serve.executions" /. Float.max 1. (delta "serve.requests"))
          ; Bench.m "serve.dedup_ratio" "ratio" (delta "serve.dedup_hits" /. Float.max 1. (delta "serve.requests"))
          ; Bench.m "serve.peak_executions" "count" (counter "serve.peak_executions" after)
          ; Bench.m "metrics.capture_ms" "ms" capture_ms
          ; Bench.m "pipeline.all_hit_ms" "ms" all_hit
          ; Bench.m "pipeline.reran_passes" "passes/op" (Stats.mean ran)
          ; Bench.m "trace.overhead_ratio" "ratio" (Stats.mean (ms_of traced) /. Stats.mean (ms_of plain))
          ; Bench.m "fail_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
          ]
        @ Bench.cache_metrics ~ops:attempted [ (cache0, cache1) ]
        @ Bench.gc_metrics ~ops:attempted g0 g1
      , [ "trace written to " ^ path ] )
    end
  in
  { Bench.attempted; failed; checks_ok = reference; metrics; notes = rows @ notes }
