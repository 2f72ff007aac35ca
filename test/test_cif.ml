open Sc_geom
open Sc_tech
open Sc_layout
open Sc_cif

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let leaf =
  Cell.make ~name:"leaf"
    ~ports:[ Cell.port "p" Layer.Metal (Rect.make 4 0 4 2) ]
    [ Cell.box Layer.Metal (Rect.make 0 0 4 2)
    ; Cell.box Layer.Poly (Rect.make 1 0 3 5)
    ]

let hierarchical =
  let mid =
    Cell.make ~name:"mid"
      ~instances:
        [ Cell.instantiate ~name:"a" leaf
        ; Cell.instantiate ~name:"b"
            ~trans:(Transform.make ~orient:Transform.R90 (Point.make 10 3))
            leaf
        ]
      [ Cell.wire Layer.Diffusion ~width:2 [ Point.make 0 8; Point.make 12 8 ] ]
  in
  Cell.make ~name:"top"
    ~instances:
      [ Cell.instantiate ~name:"m0" mid
      ; Cell.instantiate ~name:"m1"
          ~trans:(Transform.make ~orient:Transform.MX (Point.make 0 30))
          mid
      ]
    []

let test_ast_check_ok () =
  match Parse.parse (Emit.to_string hierarchical) with
  | Error e -> Alcotest.fail e
  | Ok file -> Alcotest.(check (list string)) "well-formed" [] (Ast.check file)

let test_ast_check_catches () =
  let bad = [ Ast.Def_start (1, 100, 1); Ast.Def_start (2, 100, 1) ] in
  check_bool "nested DS reported" true (List.length (Ast.check bad) > 0);
  let bad2 = [ Ast.Box { length = 2; width = 2; cx = 1; cy = 1 }; Ast.End ] in
  check_bool "geometry outside DS reported" true (List.length (Ast.check bad2) > 0)

let test_emit_contains_symbols () =
  let s = Emit.to_string hierarchical in
  check_bool "has DS" true (String.length s > 0 && String.index_opt s 'D' <> None);
  (* three symbols: leaf, mid, top *)
  let count_sub sub =
    let n = ref 0 in
    let ls = String.length s and lsub = String.length sub in
    for i = 0 to ls - lsub do
      if String.sub s i lsub = sub then incr n
    done;
    !n
  in
  check_int "three DS" 3 (count_sub "DS ");
  check_int "three DF" 3 (count_sub "DF;")

let test_roundtrip_simple () =
  check_bool "leaf roundtrips" true (Elaborate.roundtrip_ok leaf)

let test_roundtrip_hierarchical () =
  check_bool "hierarchy roundtrips" true (Elaborate.roundtrip_ok hierarchical)

let test_roundtrip_all_orients () =
  List.iter
    (fun o ->
      let c =
        Cell.make ~name:"o"
          ~instances:
            [ Cell.instantiate ~name:"i"
                ~trans:(Transform.make ~orient:o (Point.make 7 (-3)))
                leaf
            ]
          []
      in
      check_bool (Transform.orient_to_string o) true (Elaborate.roundtrip_ok c))
    Transform.all_orients

let test_roundtrip_ports () =
  match Elaborate.of_string (Emit.to_string leaf) with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    let p = Cell.find_port c "p" in
    check_bool "port centre preserved" true
      (Point.equal (Rect.center p.Cell.rect) (Point.make 4 1));
    Alcotest.(check string) "cell name preserved" "leaf" c.Cell.name

(* every flat rectangle, layer by layer *)
let flat_rects c = List.concat_map Array.to_list (Array.to_list (Flatten.view c))

let test_parse_box_direction () =
  let text = "DS 1 250 1;\nL NM;\nB 4 2 2 1 0 1;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    (* direction (0,1) swaps length and width: the box is 2 wide, 4 tall *)
    let boxes = flat_rects c in
    check_int "one box" 1 (List.length boxes);
    check_bool "rotated box" true (Rect.equal (List.hd boxes) (Rect.make 1 (-1) 3 3))

let test_parse_wire () =
  let text = "DS 1 250 1;\nL NP;\nW 2 0 0 6 0;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    let boxes = flat_rects c in
    check_int "one segment" 1 (List.length boxes);
    check_bool "padded rect" true
      (Rect.equal (List.hd boxes) (Rect.make (-1) (-1) 7 1))

let test_parse_polygon_rect () =
  let text = "DS 1 250 1;\nL ND;\nP 0 0 0 4 6 4 6 0;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c ->
    check_bool "rectangle recovered" true
      (Rect.equal (List.hd (flat_rects c)) (Rect.make 0 0 6 4))

let test_parse_comments_and_lowercase () =
  let text = "(header comment (nested));\nDS 1 250 1;\nL NM;\nBox 4 4 2 2;\nDF;\nC 1;\nE" in
  match Elaborate.of_string text with
  | Error e -> Alcotest.fail (Elaborate.error_to_string e)
  | Ok c -> check_int "one box" 1 (List.length (flat_rects c))

let test_errors () =
  let unknown_layer = "DS 1 250 1;\nL XX;\nB 2 2 1 1;\nDF;\nE" in
  (match Elaborate.of_string unknown_layer with
  | Error (Elaborate.Unknown_layer _) -> ()
  | _ -> Alcotest.fail "expected unknown layer");
  let undefined = "DS 1 250 1;\nC 9;\nDF;\nE" in
  (match Elaborate.of_string undefined with
  | Error (Elaborate.Undefined_symbol 9) -> ()
  | _ -> Alcotest.fail "expected undefined symbol");
  let offgrid = "DS 1 3 1;\nL NM;\nB 2 2 1 1;\nDF;\nE" in
  (match Elaborate.of_string offgrid with
  | Error (Elaborate.Off_grid _) -> ()
  | _ -> Alcotest.fail "expected off-grid");
  match Elaborate.of_string "garbage @!" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

(* property: random cell hierarchies roundtrip exactly *)
let gen_cell =
  let open QCheck.Gen in
  let gen_rect =
    map2
      (fun (x, y) (w, h) -> Rect.make x y (x + 1 + w) (y + 1 + h))
      (pair (int_range (-20) 20) (int_range (-20) 20))
      (pair (int_range 0 15) (int_range 0 15))
  in
  let gen_layer = oneofl [ Layer.Diffusion; Layer.Poly; Layer.Metal; Layer.Contact ] in
  let gen_leaf =
    map2
      (fun boxes i ->
        Cell.make ~name:(Printf.sprintf "leaf%d" i)
          (List.map (fun (l, r) -> Cell.box l r) boxes))
      (list_size (int_range 1 5) (pair gen_layer gen_rect))
      (int_range 0 1000)
  in
  let gen_trans =
    map2
      (fun o (x, y) -> Transform.make ~orient:o (Point.make x y))
      (oneofl Transform.all_orients)
      (pair (int_range (-30) 30) (int_range (-30) 30))
  in
  let* leaves = list_size (int_range 1 3) gen_leaf in
  let* placements =
    list_size (int_range 1 6)
      (pair (int_range 0 (List.length leaves - 1)) gen_trans)
  in
  return
    (Cell.make ~name:"top"
       ~instances:
         (List.mapi
            (fun k (i, t) ->
              Cell.instantiate ~name:(Printf.sprintf "i%d" k) ~trans:t
                (List.nth leaves i))
            placements)
       [])

let prop_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random hierarchies roundtrip through CIF" ~count:100
       (QCheck.make gen_cell) Elaborate.roundtrip_ok)

let suite =
  [ Alcotest.test_case "ast check accepts emitted file" `Quick test_ast_check_ok
  ; Alcotest.test_case "ast check catches misuse" `Quick test_ast_check_catches
  ; Alcotest.test_case "emit contains symbols" `Quick test_emit_contains_symbols
  ; Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple
  ; Alcotest.test_case "roundtrip hierarchical" `Quick test_roundtrip_hierarchical
  ; Alcotest.test_case "roundtrip all orientations" `Quick test_roundtrip_all_orients
  ; Alcotest.test_case "roundtrip ports and names" `Quick test_roundtrip_ports
  ; Alcotest.test_case "parse box with direction" `Quick test_parse_box_direction
  ; Alcotest.test_case "parse wire" `Quick test_parse_wire
  ; Alcotest.test_case "parse rectangular polygon" `Quick test_parse_polygon_rect
  ; Alcotest.test_case "parse comments and lowercase" `Quick test_parse_comments_and_lowercase
  ; Alcotest.test_case "elaboration errors" `Quick test_errors
  ; prop_roundtrip
  ]
