(* perfbench: the repository's benchmark.

   perfbench --workload cold|edit|serve|signoff --seed N --seconds S --trace 0|1

   Prints every metric by name with its unit, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end set, with --trace 1 the
   per-layer set of a separate traced run (spans written as a Chrome
   trace under perfbench/_run/).  Run it from the repository root. *)

let usage = "perfbench --workload cold|edit|serve|signoff --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " cold, edit, serve or signoff")
    ; ("--seed", Arg.Set_int seed, " seed of the generated inputs")
    ; ("--seconds", Arg.Set_float seconds, " length of the timed region")
    ; ("--trace", Arg.Set_int trace, " 1 for the traced run")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let run =
    match !workload with
    | "cold" -> fun () -> Flow.run Flow.Cold ~seed ~seconds ~trace
    | "signoff" -> fun () -> Flow.run Flow.Signoff ~seed ~seconds ~trace
    | "edit" -> fun () -> Edit.run ~seed ~seconds ~trace
    | "serve" -> fun () -> Serve.run ~seed ~seconds ~trace
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  if not (Sys.file_exists (Filename.concat "bench" "baselines")) then begin
    prerr_endline "perfbench: run from the repository root (bench/baselines not found)";
    exit 2
  end;
  let o = run () in
  let metrics =
    List.map
      (fun (x : Bench.metric) ->
        if Float.is_finite x.value then x
        else begin
          Bench.problem "metric %s is not a number" x.name;
          { x with value = 0. }
        end)
      (Bench.complete ~trace o.metrics)
  in
  List.iter print_endline o.Bench.notes;
  List.iter
    (fun (x : Bench.metric) -> Printf.printf "%-32s %14.6g %s\n" x.name x.value x.unit_)
    metrics;
  let correct = o.checks_ok && o.failed = 0 && !Bench.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (x : Bench.metric) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
          metrics))
