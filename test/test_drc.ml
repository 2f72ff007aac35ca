open Sc_geom
open Sc_tech
open Sc_layout
open Sc_drc

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cell name elements = Cell.make ~name elements

let has_rule vs pred = List.exists (fun v -> pred v.Checker.rule) vs

let test_clean_layout () =
  let c =
    cell "ok"
      [ Cell.box Layer.Metal (Rect.make 0 0 10 3)
      ; Cell.box Layer.Metal (Rect.make 0 6 10 9)
      ; Cell.box Layer.Poly (Rect.make 20 0 22 10)
      ]
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Checker.detail) (Checker.check c))

let test_narrow_poly () =
  let c = cell "narrow" [ Cell.box Layer.Poly (Rect.make 0 0 1 10) ] in
  let vs = Checker.check c in
  check_int "one violation" 1 (List.length vs);
  check_bool "width rule" true
    (has_rule vs (function Rules.Min_width (Layer.Poly, 2) -> true | _ -> false))

let test_metal_spacing () =
  let c =
    cell "close"
      [ Cell.box Layer.Metal (Rect.make 0 0 10 3)
      ; Cell.box Layer.Metal (Rect.make 0 5 10 8)
      ]
  in
  let vs = Checker.check c in
  check_bool "spacing violation" true
    (has_rule vs (function
      | Rules.Min_spacing (Layer.Metal, Layer.Metal, 3) -> true
      | _ -> false))

let test_touching_metal_merged () =
  (* Two abutting metal tiles form one region: no spacing violation. *)
  let c =
    cell "merged"
      [ Cell.box Layer.Metal (Rect.make 0 0 10 3)
      ; Cell.box Layer.Metal (Rect.make 10 0 20 3)
      ]
  in
  check_bool "clean" true (Checker.is_clean c)

let test_chained_regions () =
  (* A-touches-B-touches-C: A and C are the same region even though far
     apart in the list; the L-shape comes back near A without violation. *)
  let c =
    cell "chain"
      [ Cell.box Layer.Metal (Rect.make 0 0 3 20)
      ; Cell.box Layer.Metal (Rect.make 3 17 20 20)
      ; Cell.box Layer.Metal (Rect.make 17 0 20 17)
      ]
  in
  check_bool "one region, clean" true (Checker.is_clean c)

let test_transistor_not_flagged () =
  let c =
    cell "fet"
      [ Cell.box Layer.Diffusion (Rect.make 0 2 10 6)
      ; Cell.box Layer.Poly (Rect.make 4 0 6 8)
      ]
  in
  check_bool "gate is clean" true (Checker.is_clean c)

let test_poly_diff_abutment_flagged () =
  let c =
    cell "abut"
      [ Cell.box Layer.Diffusion (Rect.make 0 0 4 4)
      ; Cell.box Layer.Poly (Rect.make 4 0 8 4)
      ]
  in
  let vs = Checker.check c in
  check_bool "poly-diff abutment flagged" true
    (has_rule vs (function
      | Rules.Min_spacing (Layer.Poly, Layer.Diffusion, _) -> true
      | _ -> false))

let test_contact_enclosure () =
  let bad =
    cell "bad_contact"
      [ Cell.box Layer.Contact (Rect.make 0 0 2 2)
      ; Cell.box Layer.Metal (Rect.make 0 0 3 3)
      ]
  in
  let vs = Checker.check bad in
  check_bool "enclosure violated" true
    (has_rule vs (function
      | Rules.Min_enclosure (Layer.Contact, Layer.Metal, 1) -> true
      | _ -> false));
  let good =
    cell "good_contact"
      [ Cell.box Layer.Contact (Rect.make 1 1 3 3)
      ; Cell.box Layer.Metal (Rect.make 0 0 4 4)
      ]
  in
  check_bool "enclosed contact clean" true (Checker.is_clean good)

let test_enclosure_by_union () =
  (* The margin region is covered by two metal rects jointly. *)
  let c =
    cell "union_cover"
      [ Cell.box Layer.Contact (Rect.make 3 3 5 5)
      ; Cell.box Layer.Metal (Rect.make 2 2 5 6)
      ; Cell.box Layer.Metal (Rect.make 5 2 9 6)
      ]
  in
  check_bool "union cover accepted" true (Checker.is_clean c)

let test_violation_in_instances () =
  (* Violations across instance boundaries are caught after flattening. *)
  let half = cell "half" [ Cell.box Layer.Metal (Rect.make 0 0 4 4) ] in
  let c =
    Cell.make ~name:"pair"
      ~instances:
        [ Cell.instantiate ~name:"a" half
        ; Cell.instantiate ~name:"b" ~trans:(Transform.translation 6 0) half
        ]
      []
  in
  let vs = Checker.check c in
  check_bool "cross-instance spacing flagged" true (List.length vs > 0)

let test_wide_rect_not_missed_by_sweep () =
  (* Regression for the sorted cross-layer sweep: a rectangle whose xmin
     is far to the left can still reach a partner through its xmax.  A
     sweep keyed on xmin distances alone would skip this pair; the
     window must extend to xmax + spacing. *)
  let c =
    cell "wide"
      [ Cell.box Layer.Poly (Rect.make 0 0 40 2)
      ; Cell.box Layer.Diffusion (Rect.make 38 2 42 6)
      ]
  in
  let vs = Checker.check c in
  check_bool "wide-rect abutment flagged" true
    (has_rule vs (function
      | Rules.Min_spacing (Layer.Poly, Layer.Diffusion, _) -> true
      | _ -> false));
  (* same shape, pushed one lambda apart: clean *)
  let ok =
    cell "wide_ok"
      [ Cell.box Layer.Poly (Rect.make 0 0 40 2)
      ; Cell.box Layer.Diffusion (Rect.make 38 3 42 7)
      ]
  in
  check_bool "spaced version clean" true (Checker.is_clean ok)

let test_wide_outer_still_encloses () =
  (* Same concern on the enclosure pass: the covering metal starts far
     left of the contact but still encloses it. *)
  let c =
    cell "wide_cover"
      [ Cell.box Layer.Contact (Rect.make 30 1 32 3)
      ; Cell.box Layer.Metal (Rect.make 0 0 40 4)
      ]
  in
  check_bool "wide metal accepted as cover" true (Checker.is_clean c)

let test_pdp8_drc_time_budget () =
  (* The all-pairs deck took ~2.7 s of CPU on the pdp8 layout; the
     indexed checker takes ~0.03 s (2-vCPU x86-64 host, pool of one).  The
     5 s budget trips only if quadratic behaviour comes back. *)
  let d = Sc_core.Designs.parse Sc_core.Designs.pdp8_src in
  let r = Sc_synth.Synth.gates d in
  let layout =
    Sc_core.Compiler.layout_of_circuit ~name:"pdp8" r.Sc_synth.Synth.circuit
  in
  let flat = Flatten.run layout in
  let t0 = Sys.time () in
  let vs = Checker.check_flat flat in
  let dt = Sys.time () -. t0 in
  check_int "pdp8 layout is DRC clean" 0 (List.length vs);
  check_bool (Printf.sprintf "DRC under budget (%.2fs cpu)" dt) true (dt < 5.0)

(* property: inflating every metal rect's position apart by >= spacing keeps
   layouts clean on the metal rules *)
let prop_spaced_metal_clean =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 8)
        (pair (int_range 0 10) (int_range 0 10)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"well-spaced metal grid is clean" ~count:100
       (QCheck.make gen) (fun cells ->
         let boxes =
           List.map
             (fun (i, j) ->
               Cell.box Layer.Metal
                 (Rect.make (i * 10) (j * 10) ((i * 10) + 4) ((j * 10) + 4)))
             cells
         in
         (* duplicates coincide exactly: same region, still clean *)
         Checker.is_clean (cell "grid" boxes)))

let test_joint_enclosure_with_far_rail () =
  (* The contact's margin is covered only by a rail that starts far to the
     left and ends inside the margin, together with a second rectangle. *)
  let contact = Cell.box Layer.Contact (Rect.make 100 10 102 12) in
  let rail = Cell.box Layer.Metal (Rect.make 0 9 101 13) in
  let c =
    cell "joint"
      [ contact; rail; Cell.box Layer.Metal (Rect.make 101 9 110 13) ]
  in
  check_bool "rail + second rect enclose" true (Checker.is_clean c);
  let vs = Checker.check (cell "rail_only" [ contact; rail ]) in
  check_bool "rail alone does not" true
    (has_rule vs (function
      | Rules.Min_enclosure (Layer.Contact, Layer.Metal, 1) -> true
      | _ -> false))

(* The deck written out over all pairs, in the checker's report order:
   width per layer, then spacing per layer, then poly-diffusion spacing,
   then enclosure, each scanning its layer in xmin order. *)
let brute_deck flat =
  let out = ref [] in
  let add rule where detail = out := { Checker.rule; where; detail } :: !out in
  let rects l =
    List.rev
      (List.filter_map
         (fun (fb : Flatten.flat_box) ->
           if Layer.equal fb.layer l && not (Rect.is_empty fb.rect) then
             Some fb.rect
           else None)
         flat)
  in
  let sorted l =
    let a = Array.of_list (rects l) in
    Array.sort (fun r1 r2 -> Int.compare r1.Rect.xmin r2.Rect.xmin) a;
    a
  in
  List.iter
    (fun l ->
      let w = Rules.min_width l in
      List.iter
        (fun r ->
          let narrow = min (Rect.width r) (Rect.height r) in
          if narrow < w then
            add (Rules.Min_width (l, w)) r
              (Printf.sprintf "feature is %d lambda wide" narrow))
        (rects l))
    Layer.all;
  List.iter
    (fun l ->
      let s = Rules.min_spacing l in
      let a = sorted l in
      let n = Array.length a in
      (* same region: joined by a chain of touching rectangles *)
      let reach =
        Array.init n (fun i ->
            Array.init n (fun j ->
                i = j || Rect.touches_or_overlaps a.(i) a.(j)))
      in
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      if s > 0 then
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let sep = Rect.separation a.(i) a.(j) in
            if (not reach.(i).(j)) && sep < s then
              add (Rules.Min_spacing (l, l, s)) a.(i)
                (Printf.sprintf "to %s: %d < %d" (Rect.to_string a.(j)) sep s)
          done
        done)
    Layer.all;
  let s = Rules.cross_spacing Layer.Poly Layer.Diffusion in
  let m =
    Array.append
      (Array.map (fun r -> (r, true)) (sorted Layer.Poly))
      (Array.map (fun r -> (r, false)) (sorted Layer.Diffusion))
  in
  Array.sort
    (fun (r1, t1) (r2, t2) ->
      match Int.compare r1.Rect.xmin r2.Rect.xmin with
      | 0 -> compare (t1, r1) (t2, r2)
      | c -> c)
    m;
  Array.iteri
    (fun i (ri, ti) ->
      Array.iteri
        (fun j (rj, tj) ->
          if j > i && ti <> tj then begin
            let a, b = if ti then (ri, rj) else (rj, ri) in
            let sep = Rect.separation a b in
            if (not (Rect.overlaps a b)) && sep < s then
              add (Rules.Min_spacing (Layer.Poly, Layer.Diffusion, s)) a
                (Printf.sprintf "to %s on %s: %d < %d" (Rect.to_string b)
                   (Layer.to_string Layer.Diffusion) sep s)
          end)
        m)
    m;
  List.iter
    (fun (inner, outer) ->
      let mg = Rules.enclosure ~inner ~outer in
      let outers = rects outer in
      Array.iter
        (fun r ->
          let t = Rect.inflate mg r in
          (* every unit cell of the margin lies in some outer rectangle *)
          let ok = ref true in
          for x = t.Rect.xmin to t.Rect.xmax - 1 do
            for y = t.Rect.ymin to t.Rect.ymax - 1 do
              let c = Rect.make x y (x + 1) (y + 1) in
              if not (List.exists (fun o -> Rect.contains o c) outers) then
                ok := false
            done
          done;
          if not !ok then
            add (Rules.Min_enclosure (inner, outer, mg)) r
              (Printf.sprintf "not enclosed by %s with margin %d"
                 (Layer.to_string outer) mg))
        (sorted inner))
    [ (Layer.Contact, Layer.Metal); (Layer.Glass, Layer.Metal) ];
  List.rev !out

let pools =
  lazy [ (1, Sc_par.Pool.create ~domains:1 ()); (3, Sc_par.Pool.create ~domains:3 ()) ]

(* Violations are found in any order, on any domain, and sorted into
   report order only afterwards, so the deck is compared at a pool of one
   and at a pool of three.  Copies of a box test the order between equal
   rectangles. *)
let prop_check_flat_is_brute_deck =
  let gen =
    QCheck.Gen.(
      pair (oneofl [ 1; 3 ])
        ( list_size (int_range 0 40)
            (map3
               (fun l (x, y) (w, h) ->
                 { Flatten.layer = l; rect = Rect.of_corner_wh ~x ~y ~w ~h })
               (oneofl Layer.all)
               (pair (int_range 0 30) (int_range 0 30))
               (pair (int_range 0 12) (int_range 0 12)))
        >>= fun fl ->
          map
            (fun picks ->
              let a = Array.of_list fl in
              List.iter
                (fun (i, j) ->
                  if a <> [||] then
                    a.(i mod Array.length a) <- a.(j mod Array.length a))
                picks;
              Array.to_list a)
            (list_size (int_range 0 4) (pair nat nat)) ))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"check_flat = all-pairs deck, in order" ~count:400
       (QCheck.make
          ~print:(fun (domains, fl) ->
            Printf.sprintf "pool %d: %s" domains
              (String.concat " "
                 (List.map
                    (fun (fb : Flatten.flat_box) ->
                      Layer.to_string fb.layer ^ Rect.to_string fb.rect)
                    fl)))
          gen)
       (fun (domains, flat) ->
         let pool = List.assoc domains (Lazy.force pools) in
         Checker.check_flat ~pool flat = brute_deck flat))

let suite =
  [ Alcotest.test_case "clean layout" `Quick test_clean_layout
  ; Alcotest.test_case "narrow poly flagged" `Quick test_narrow_poly
  ; Alcotest.test_case "metal spacing flagged" `Quick test_metal_spacing
  ; Alcotest.test_case "touching metal merged" `Quick test_touching_metal_merged
  ; Alcotest.test_case "chained regions merged" `Quick test_chained_regions
  ; Alcotest.test_case "transistor not flagged" `Quick test_transistor_not_flagged
  ; Alcotest.test_case "poly-diff abutment flagged" `Quick test_poly_diff_abutment_flagged
  ; Alcotest.test_case "contact enclosure" `Quick test_contact_enclosure
  ; Alcotest.test_case "enclosure by union of rects" `Quick test_enclosure_by_union
  ; Alcotest.test_case "violations across instances" `Quick test_violation_in_instances
  ; Alcotest.test_case "wide rect not missed by sweep" `Quick
      test_wide_rect_not_missed_by_sweep
  ; Alcotest.test_case "wide outer still encloses" `Quick
      test_wide_outer_still_encloses
  ; Alcotest.test_case "joint enclosure with a far rail" `Quick
      test_joint_enclosure_with_far_rail
  ; Alcotest.test_case "pdp8 DRC time budget" `Slow test_pdp8_drc_time_budget
  ; prop_spaced_metal_clean
  ; prop_check_flat_is_brute_deck
  ]
