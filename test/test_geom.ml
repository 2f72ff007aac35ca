open Sc_geom

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- generators --- *)

let small_int = QCheck.Gen.int_range (-50) 50

let gen_point = QCheck.Gen.map2 Point.make small_int small_int

let gen_rect =
  QCheck.Gen.map2
    (fun (x0, y0) (x1, y1) -> Rect.make x0 y0 x1 y1)
    (QCheck.Gen.pair small_int small_int)
    (QCheck.Gen.pair small_int small_int)

let gen_orient = QCheck.Gen.oneofl Transform.all_orients

let gen_transform =
  QCheck.Gen.map2
    (fun o p -> Transform.make ~orient:o p)
    gen_orient gen_point

let arb_rect = QCheck.make ~print:Rect.to_string gen_rect

let arb_rect2 = QCheck.make
    ~print:(fun (a, b) -> Rect.to_string a ^ " " ^ Rect.to_string b)
    (QCheck.Gen.pair gen_rect gen_rect)

let arb_transform_point =
  QCheck.make
    ~print:(fun (t, p) -> Format.asprintf "%a %a" Transform.pp t Point.pp p)
    (QCheck.Gen.pair gen_transform gen_point)

let arb_two_transforms_point =
  QCheck.make (QCheck.Gen.triple gen_transform gen_transform gen_point)

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* --- unit tests --- *)

let test_rect_normalizes () =
  let r = Rect.make 5 7 2 3 in
  check "xmin" 2 r.Rect.xmin;
  check "ymin" 3 r.Rect.ymin;
  check "width" 3 (Rect.width r);
  check "height" 4 (Rect.height r);
  check "area" 12 (Rect.area r)

let test_rect_center_corner () =
  let r = Rect.of_corner_wh ~x:2 ~y:3 ~w:4 ~h:6 in
  Alcotest.check Alcotest.bool "center" true
    (Point.equal (Rect.center r) (Point.make 4 6));
  let c = Rect.of_center_wh ~cx:0 ~cy:0 ~w:4 ~h:4 in
  check "cxmin" (-2) c.Rect.xmin;
  check "cxmax" 2 c.Rect.xmax

let test_rect_relations () =
  let a = Rect.make 0 0 4 4 and b = Rect.make 4 0 8 4 in
  check_bool "abutting do not overlap" false (Rect.overlaps a b);
  check_bool "abutting touch" true (Rect.touches_or_overlaps a b);
  check "separation of abutting" 0 (Rect.separation a b);
  let c = Rect.make 6 0 9 4 in
  check "separation gap" 2 (Rect.separation a c);
  let d = Rect.make 6 9 9 12 in
  check "diagonal separation is max gap" 5 (Rect.separation a d)

let test_rect_inflate_negative () =
  let r = Rect.make 0 0 10 10 in
  let shrunk = Rect.inflate (-3) r in
  check "shrunk width" 4 (Rect.width shrunk);
  let collapsed = Rect.inflate (-7) r in
  check_bool "over-shrink collapses" true (Rect.is_empty collapsed)

let test_path_rects () =
  let p = Path.make ~width:2 [ Point.make 0 0; Point.make 10 0; Point.make 10 8 ] in
  Alcotest.(check int) "length" 18 (Path.length p);
  let rs = Path.to_rects p in
  Alcotest.(check int) "two segments" 2 (List.length rs);
  let h = List.nth rs 0 in
  check_bool "horizontal segment padded" true
    (Rect.equal h (Rect.make (-1) (-1) 11 1));
  check_bool "manhattan" true (Path.is_manhattan p)

let test_path_rejects () =
  Alcotest.check_raises "odd width" (Invalid_argument "Path.to_rects: width must be even (half-width padding)")
    (fun () -> ignore (Path.to_rects (Path.make ~width:3 [ Point.origin; Point.make 4 0 ])));
  Alcotest.check_raises "diagonal" (Invalid_argument "Path.to_rects: non-Manhattan segment")
    (fun () -> ignore (Path.to_rects (Path.make ~width:2 [ Point.origin; Point.make 4 3 ])))

let test_transform_known_values () =
  let p = Point.make 3 1 in
  let app o = Transform.apply (Transform.make ~orient:o Point.origin) p in
  check_bool "R90" true (Point.equal (app Transform.R90) (Point.make (-1) 3));
  check_bool "R180" true (Point.equal (app Transform.R180) (Point.make (-3) (-1)));
  check_bool "MX" true (Point.equal (app Transform.MX) (Point.make 3 (-1)));
  check_bool "MY" true (Point.equal (app Transform.MY) (Point.make (-3) 1));
  check_bool "MX90" true (Point.equal (app Transform.MX90) (Point.make 1 3))

let test_orient_group_closure () =
  List.iter
    (fun a ->
      List.iter
        (fun b -> ignore (Transform.orient_compose a b))
        Transform.all_orients)
    Transform.all_orients

(* --- properties --- *)

let prop_inter_subset =
  qtest "inter result is inside both" 500
    arb_rect2
    (fun (a, b) ->
      match Rect.inter a b with
      | None -> true
      | Some i -> Rect.contains a i && Rect.contains b i)

let prop_union_superset =
  qtest "union_bbox contains both" 500 arb_rect2 (fun (a, b) ->
      let u = Rect.union_bbox a b in
      Rect.contains u a && Rect.contains u b)

let prop_separation_sym =
  qtest "separation is symmetric" 500 arb_rect2 (fun (a, b) ->
      Rect.separation a b = Rect.separation b a)

let prop_separation_zero_iff_touch =
  qtest "separation 0 iff touching" 500 arb_rect2 (fun (a, b) ->
      Rect.separation a b = 0 = Rect.touches_or_overlaps a b)

let prop_compose_is_apply_apply =
  qtest "compose agrees with nested apply" 1000 arb_two_transforms_point
    (fun (t1, t2, p) ->
      Point.equal
        (Transform.apply (Transform.compose t1 t2) p)
        (Transform.apply t1 (Transform.apply t2 p)))

let prop_invert_roundtrip =
  qtest "invert undoes apply" 1000 arb_transform_point (fun (t, p) ->
      Point.equal (Transform.apply (Transform.invert t) (Transform.apply t p)) p)

let prop_apply_rect_matches_corners =
  qtest "apply_rect is the corner image bbox" 500
    (QCheck.make (QCheck.Gen.pair gen_transform gen_rect))
    (fun (t, r) ->
      let lo, hi = Rect.corners r in
      let p = Transform.apply t lo and q = Transform.apply t hi in
      Rect.equal (Transform.apply_rect t r)
        (Rect.make p.Point.x p.Point.y q.Point.x q.Point.y))

let prop_rect_area_preserved =
  qtest "transform preserves area" 500
    (QCheck.make (QCheck.Gen.pair gen_transform gen_rect))
    (fun (t, r) -> Rect.area (Transform.apply_rect t r) = Rect.area r)


(* --- the rectangle index --- *)

(* Layer-like rectangle sets: small boxes, chip-wide rails in either axis,
   exact duplicates and zero-area rectangles. *)
let gen_layer =
  let open QCheck.Gen in
  let box =
    frequency
      [ (6, map2 (fun (x, y) (w, h) -> Rect.of_corner_wh ~x ~y ~w ~h)
             (pair small_int small_int) (pair (int_range 0 8) (int_range 0 8)))
      ; (1, map2 (fun y h -> Rect.make (-60) y 60 (y + h)) small_int
             (int_range 0 4))
      ; (1, map2 (fun x w -> Rect.make x (-60) (x + w) 60) small_int
             (int_range 0 4))
      ]
  in
  list_size (int_range 0 60) box >>= fun rs ->
  (* copy a few rectangles over others: exact duplicates *)
  map
    (fun picks ->
      let a = Array.of_list rs in
      let n = Array.length a in
      List.iter (fun (i, j) -> if n > 0 then a.(i mod n) <- a.(j mod n)) picks;
      a)
    (list_size (int_range 0 5) (pair nat nat))

let print_layer a =
  String.concat " " (Array.to_list (Array.map Rect.to_string a))

let prop_near_is_filter =
  qtest "index near = separation filter, in order" 300
    (QCheck.make
       ~print:(fun (a, (d, r)) ->
         Printf.sprintf "%s | d=%d r=%s" (print_layer a) d (Rect.to_string r))
       QCheck.Gen.(pair gen_layer (pair (int_range 0 6) gen_rect)))
    (fun (a, (d, r)) ->
      let idx = Rect_index.make a in
      let brute q =
        List.filter (fun i -> Rect.separation a.(i) q <= d)
          (List.init (Array.length a) Fun.id)
      in
      Rect_index.near idx d r = brute r
      && Array.for_all (fun q -> Rect_index.near idx d q = brute q) a)

let prop_iter_visits_near_once =
  qtest "index iter visits each of near once" 300
    (QCheck.make
       ~print:(fun (a, (d, r)) ->
         Printf.sprintf "%s | d=%d r=%s" (print_layer a) d (Rect.to_string r))
       QCheck.Gen.(pair gen_layer (pair (int_range (-1) 6) gen_rect)))
    (fun (a, (d, r)) ->
      let idx = Rect_index.make a in
      let visits q =
        let seen = Array.make (Array.length a) 0 in
        Rect_index.iter idx d q (fun i -> seen.(i) <- seen.(i) + 1);
        let near = Rect_index.near idx d q in
        Array.for_all Fun.id
          (Array.mapi
             (fun i k -> k = if List.mem i near then 1 else 0)
             seen)
      in
      visits r && Array.for_all visits a)

(* touch-connected regions by breadth-first closure over all pairs *)
let brute_regions a =
  let n = Array.length a in
  let label = Array.make n (-1) in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let queue = Queue.create () in
      label.(s) <- s;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        for j = 0 to n - 1 do
          if label.(j) < 0 && Rect.touches_or_overlaps a.(i) a.(j) then begin
            label.(j) <- s;
            Queue.add j queue
          end
        done
      done
    end
  done;
  label

let prop_components_partition =
  qtest "index components = touch closure" 300
    (QCheck.make ~print:print_layer gen_layer)
    (fun a ->
      let comp = Rect_index.components (Rect_index.make a) in
      let brute = brute_regions a in
      let n = Array.length a in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> comp.(i) = comp.(j) = (brute.(i) = brute.(j)))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* Roots, not only the partition: all-pairs unions in ascending order on a
   plain union-find pick the same root for every region. *)
let prop_components_roots =
  qtest "index components keep all-pairs roots" 300
    (QCheck.make ~print:print_layer gen_layer)
    (fun a ->
      let n = Array.length a in
      let parent = Array.init n Fun.id in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rect.touches_or_overlaps a.(i) a.(j) then begin
            let ri = find i and rj = find j in
            if ri <> rj then parent.(ri) <- rj
          end
        done
      done;
      Rect_index.components (Rect_index.make a) = Array.init n find)

let test_index_size_linear_on_pile () =
  (* 2000 stacked chip-sized boxes over 2000 small ones: at the density
     pitch each big box would cross about a thousand buckets. *)
  let n = 4000 in
  let a =
    Array.init n (fun i ->
        if i mod 2 = 0 then Rect.make (i mod 7) 0 1000 1000
        else
          Rect.of_corner_wh ~x:(i * 13 mod 1000) ~y:(i * 29 mod 1000) ~w:4 ~h:4)
  in
  let idx = Rect_index.make a in
  let words =
    Obj.reachable_words (Obj.repr idx) - Obj.reachable_words (Obj.repr a)
  in
  check_bool (Printf.sprintf "index words %d <= 12n" words) true
    (words <= 12 * n);
  let q = Rect.make 500 500 501 501 in
  Alcotest.(check (list int)) "near still exact"
    (List.filter
       (fun i -> Rect.touches_or_overlaps a.(i) q)
       (List.init n Fun.id))
    (Rect_index.near idx 0 q)

let prop_subtract_raster =
  qtest "subtract leaves exactly the uncut cells" 500
    (QCheck.make
       ~print:(fun (r, cuts) -> print_layer (Array.of_list (r :: cuts)))
       QCheck.Gen.(pair gen_rect (list_size (int_range 0 6) gen_rect)))
    (fun (r, cuts) ->
      let pieces = Rect.subtract r cuts in
      let cell x y = Rect.make x y (x + 1) (y + 1) in
      let ok = ref (List.for_all (fun p -> not (Rect.is_empty p)) pieces) in
      for x = -50 to 49 do
        for y = -50 to 49 do
          let c = cell x y in
          let want =
            Rect.contains r c
            && not (List.exists (fun k -> Rect.contains k c) cuts)
          in
          let have =
            List.length (List.filter (fun p -> Rect.contains p c) pieces)
          in
          if have <> if want then 1 else 0 then ok := false
        done
      done;
      !ok)

let suite =
  [ Alcotest.test_case "rect normalizes" `Quick test_rect_normalizes
  ; Alcotest.test_case "rect center/corner constructors" `Quick test_rect_center_corner
  ; Alcotest.test_case "rect relations" `Quick test_rect_relations
  ; Alcotest.test_case "rect negative inflate" `Quick test_rect_inflate_negative
  ; Alcotest.test_case "path to rects" `Quick test_path_rects
  ; Alcotest.test_case "path rejects bad input" `Quick test_path_rejects
  ; Alcotest.test_case "transform known values" `Quick test_transform_known_values
  ; Alcotest.test_case "orient group closed" `Quick test_orient_group_closure
  ; prop_inter_subset
  ; prop_union_superset
  ; prop_separation_sym
  ; prop_separation_zero_iff_touch
  ; prop_compose_is_apply_apply
  ; prop_invert_roundtrip
  ; prop_apply_rect_matches_corners
  ; prop_rect_area_preserved
  ; Alcotest.test_case "index size linear on a pile of boxes" `Quick
      test_index_size_linear_on_pile
  ; prop_near_is_filter
  ; prop_iter_visits_near_once
  ; prop_components_partition
  ; prop_components_roots
  ; prop_subtract_raster
  ]
