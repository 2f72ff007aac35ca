(* The flat view and the CIF writer against the list flattener and the
   command-list emitter they replaced (see oracle.ml), on random
   hierarchies: at least three levels of instances, all eight
   orientations, wires, degenerate and duplicate boxes, and names that
   need sanitizing. *)

open Sc_geom
open Sc_tech
open Sc_layout

let check_int = Alcotest.(check int)

let seeded test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xF1A7; 16 |]) test

let orients = Array.of_list Transform.all_orients
let layers = Array.of_list Layer.all
let pick st a = a.(Random.State.int st (Array.length a))

let gen_rect st =
  let size () = pick st [| 0; 0; 1; 2; 3; 4; 6; 9 |] in
  Rect.of_corner_wh
    ~x:(Random.State.int st 50 - 20)
    ~y:(Random.State.int st 50 - 20)
    ~w:(size ()) ~h:(size ())

(* zero to five points, each step along one axis (possibly of length 0) *)
let gen_points st =
  let p0 = Point.make (Random.State.int st 40 - 10) (Random.State.int st 40 - 10) in
  let rec steps p k =
    if k = 0 then []
    else
      let d = Random.State.int st 25 - 12 in
      let q =
        if Random.State.bool st then Point.make (p.Point.x + d) p.Point.y
        else Point.make p.Point.x (p.Point.y + d)
      in
      q :: steps q (k - 1)
  in
  match Random.State.int st 6 with
  | 0 -> []
  | n -> p0 :: steps p0 (n - 1)

let gen_element st =
  let l = pick st layers in
  if Random.State.int st 3 = 0 then
    Cell.wire l ~width:(pick st [| 2; 4; 6 |]) (gen_points st)
  else Cell.box l (gen_rect st)

(* elements, some repeated so equal boxes occur *)
let gen_elements st n =
  let es = List.init n (fun _ -> gen_element st) in
  match es with
  | [] -> []
  | e :: _ -> if Random.State.int st 3 = 0 then es @ [ e ] else es

let names = [| "leaf"; "m i d"; ""; "top;"; "c(1)"; "x[3]"; "caf\xc3\xa9"; "a.b-c_d" |]

let gen_ports st =
  List.init (Random.State.int st 3) (fun k ->
      Cell.port
        (Printf.sprintf "%s%d" (pick st names) k)
        (pick st layers) (gen_rect st))

let gen_trans st =
  Transform.make ~orient:(pick st orients)
    (Point.make (Random.State.int st 120 - 60) (Random.State.int st 120 - 60))

(* A level-[k] cell places one to three cells of the level below (and
   sometimes one from further down), so every hierarchy is at least
   [depth] instances deep and masters are shared. *)
let gen_hierarchy ?(depth = 3) st =
  let levels = Array.make (depth + 1) [||] in
  levels.(0) <-
    Array.init
      (1 + Random.State.int st 2)
      (fun _ ->
        Cell.make ~name:(pick st names) ~ports:(gen_ports st)
          (gen_elements st (1 + Random.State.int st 5)));
  for k = 1 to depth do
    let count = if k = depth then 1 else 1 + Random.State.int st 2 in
    levels.(k) <-
      Array.init count (fun _ ->
          let below = List.init (1 + Random.State.int st 3) (fun _ -> pick st levels.(k - 1)) in
          let deeper =
            if Random.State.bool st then [ pick st levels.(Random.State.int st k) ] else []
          in
          Cell.make ~name:(pick st names) ~ports:(gen_ports st)
            ~instances:
              (List.mapi
                 (fun i c ->
                   Cell.instantiate ~name:(Printf.sprintf "i%d" i) ~trans:(gen_trans st) c)
                 (below @ deeper))
            (gen_elements st (Random.State.int st 4)))
  done;
  levels.(depth).(0)

let arb_hierarchy =
  QCheck.make ~print:(fun c -> (Oracle.emit c).Sc_cif.Emit.text) gen_hierarchy

let prop name ?(count = 200) f = seeded (QCheck.Test.make ~name ~count arb_hierarchy f)

let prop_view_is_preorder =
  prop "view layers = list flattener, preorder" (fun c ->
      let v = Flatten.view c and flat = Oracle.preorder c in
      List.for_all
        (fun l ->
          let got = Array.to_list (Flatten.layer v l) in
          let want = Oracle.layer_rects flat l in
          List.length got = List.length want && List.for_all2 Rect.equal got want)
        Layer.all)

let prop_wire_expand_then_transform =
  let gen st =
    (gen_trans st, Path.make ~width:(pick st [| 2; 4; 6 |]) (gen_points st))
  in
  seeded
    (QCheck.Test.make ~name:"wire expanded then transformed = transformed then expanded"
       ~count:500
       (QCheck.make
          ~print:(fun (t, p) -> Format.asprintf "%a %a" Transform.pp t Path.pp p)
          gen)
       (fun (t, p) ->
         let a = List.map (Transform.apply_rect t) (Path.to_rects p) in
         let b = Path.to_rects (Path.transform t p) in
         List.length a = List.length b && List.for_all2 Rect.equal a b))

let prop_stats =
  prop "transistors and layer areas = list flattener's" (fun c ->
      let v = Flatten.view c in
      let s = Stats.measure c in
      Stats.transistors v = Oracle.transistor_count c
      && Stats.transistor_count c = Oracle.transistor_count c
      && s.Stats.transistors = Oracle.transistor_count c
      && Stats.layer_areas v = Oracle.layer_areas c
      && s.Stats.layer_area = Oracle.layer_areas c)

(* the hierarchy's boxes drawn flat, in the list flattener's preorder,
   with the root's ports: what extraction and DRC saw before *)
let flat_twin c =
  Cell.make ~name:"flat" ~ports:c.Cell.ports
    (List.map (fun (l, r) -> Cell.box l r) (Oracle.preorder c))

let prop_extract =
  prop "extraction = extraction of the list flattener's boxes" (fun c ->
      Sc_extract.Extractor.extract c = Sc_extract.Extractor.extract (flat_twin c))

(* Device order and node numbers follow the order extraction reads each
   layer in, which the comparison above cannot see (both sides read a
   view).  These digests of the full netlists were taken with the list
   flattener, before the view existed. *)
let test_extract_pinned () =
  let canon (n : Sc_extract.Extractor.netlist) =
    let b = Buffer.create 1024 in
    Printf.bprintf b "%d|" n.node_count;
    List.iter
      (fun (d : Sc_extract.Extractor.device) ->
        Printf.bprintf b "%d:%s:%b;" d.gate
          (String.concat "," (List.map string_of_int d.terminals))
          d.depletion)
      n.devices;
    List.iter (fun (s, i) -> Printf.bprintf b "%s=%d;" s i) n.named;
    List.iter (fun w -> Printf.bprintf b "%s;" w) n.warnings;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (name, src, digest) ->
      let d = Sc_core.Designs.parse src in
      let c = (Sc_synth.Synth.gates d).Sc_synth.Synth.circuit in
      let l = Sc_core.Compiler.layout_of_circuit ~name c in
      Alcotest.(check string) name digest (canon (Sc_extract.Extractor.extract l)))
    [ ("counter", Sc_core.Designs.counter_src, "2bfd24a9aceceb2d2ca68ebbfdfc8da7")
    ; ("alu4", Sc_core.Designs.alu_src, "9c18b9db985f7f4756df7b7e48e0c386")
    ; ("traffic", Sc_core.Designs.traffic_src, "5a59ff3834a78ccba75ebbdfd1fc32e1")
    ]

let pools =
  lazy [ Sc_par.Pool.create ~domains:1 (); Sc_par.Pool.create ~domains:3 () ]

let prop_drc =
  prop "DRC = all-pairs deck on the list flattener's boxes, pools 1 and 3"
    ~count:150 (fun c ->
      let v = Flatten.view c and want = Test_drc.brute_deck (Oracle.preorder c) in
      List.for_all
        (fun pool -> Sc_drc.Checker.check_flat ~pool v = want)
        (Lazy.force pools))

let prop_emit =
  prop "CIF writer = command-list emitter: text, commands, rects" (fun c ->
      Sc_cif.Emit.emit c = Oracle.emit c)

(* a compile whose drc and measure both hit the stage cache never
   flattens; the cold compile before it flattens once *)
let test_warm_hit_never_flattens () =
  let module C = Sc_core.Compiler in
  let module P = Sc_pipeline.Pipeline in
  P.disable_cache ();
  P.clear_caches ();
  P.enable_cache ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
  @@ fun () ->
  let flattens () =
    let r = Sc_obs.Obs.Recorder.create () in
    Sc_obs.Obs.Recorder.enable r;
    (match C.compile_behavior ~recorder:r Sc_core.Designs.counter_src with
    | Ok _ -> ()
    | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d));
    List.length
      (List.filter
         (fun (e : Sc_obs.Obs.event) -> e.name = "flatten")
         (Sc_obs.Obs.Recorder.events r))
  in
  check_int "cold compile flattens once" 1 (flattens ());
  check_int "warm all-hit compile never flattens" 0 (flattens ())

let suite =
  [ prop_view_is_preorder
  ; prop_wire_expand_then_transform
  ; prop_stats
  ; prop_extract
  ; Alcotest.test_case "extracted netlists unchanged" `Quick test_extract_pinned
  ; prop_drc
  ; prop_emit
  ; Alcotest.test_case "warm all-hit compile never flattens" `Quick
      test_warm_hit_never_flattens
  ]
