(* Reference implementations the flat view and the CIF writer are
   checked against: the list flattener and the command-list emitter they
   replaced, kept as plain as possible. *)

open Sc_geom
open Sc_tech
open Sc_layout

(* --- the list flattener --- *)

(* Every box of the hierarchy in root coordinates, each wire transformed
   first and expanded second, in reverse preorder (the last box of the
   walk comes first). *)
let flatten root =
  let element trans acc = function
    | Cell.Box (l, r) -> (l, Transform.apply_rect trans r) :: acc
    | Cell.Wire (l, p) ->
      List.fold_left
        (fun acc r -> (l, r) :: acc)
        acc
        (Path.to_rects (Path.transform trans p))
  in
  let rec go trans (c : Cell.t) acc =
    let acc = List.fold_left (element trans) acc c.elements in
    List.fold_left
      (fun acc (i : Cell.inst) -> go (Transform.compose trans i.trans) i.cell acc)
      acc c.instances
  in
  go Transform.identity root []

(* the boxes in preorder *)
let preorder root = List.rev (flatten root)

let layer_rects flat l =
  List.filter_map (fun (l', r) -> if Layer.equal l l' then Some r else None) flat

let layer_areas root =
  let areas = Array.make Layer.count 0 in
  List.iter
    (fun (l, r) ->
      let i = Layer.index l in
      areas.(i) <- areas.(i) + Rect.area r)
    (flatten root);
  areas

let transistor_count root =
  let flat = flatten root in
  let layer l = Array.of_list (layer_rects flat l) in
  let region =
    Rect_index.components
      (Rect_index.make
         (Array.of_list (Stats.crossings (layer Layer.Poly) (layer Layer.Diffusion))))
  in
  List.length (List.filteri (fun i r -> i = r) (Array.to_list region))

(* --- the command-list emitter --- *)

let orient_ops : Transform.orient -> Sc_cif.Ast.trans_op list = function
  | Transform.R0 -> []
  | Transform.R90 -> [ Sc_cif.Ast.Rotate (0, 1) ]
  | Transform.R180 -> [ Sc_cif.Ast.Rotate (-1, 0) ]
  | Transform.R270 -> [ Sc_cif.Ast.Rotate (0, -1) ]
  | Transform.MX -> [ Sc_cif.Ast.Mirror_y ]
  | Transform.MY -> [ Sc_cif.Ast.Mirror_x ]
  | Transform.MX90 -> [ Sc_cif.Ast.Mirror_y; Sc_cif.Ast.Rotate (0, 1) ]
  | Transform.MY90 -> [ Sc_cif.Ast.Mirror_x; Sc_cif.Ast.Rotate (0, 1) ]

let box_command (r : Rect.t) =
  Sc_cif.Ast.Box
    { length = 2 * Rect.width r
    ; width = 2 * Rect.height r
    ; cx = r.Rect.xmin + r.Rect.xmax
    ; cy = r.Rect.ymin + r.Rect.ymax
    }

let element_rects = function
  | Cell.Box (l, r) -> [ (l, r) ]
  | Cell.Wire (l, p) -> List.map (fun r -> (l, r)) (Path.to_rects p)

let symbol_commands number (c : Cell.t) numbering =
  let open Sc_cif in
  let header =
    [ Ast.Def_start (number, Rules.centimicrons_per_lambda / 2, 1)
    ; Ast.User (9, Emit.sanitize c.name)
    ]
  in
  let by_layer =
    List.stable_sort
      (fun (a, _) (b, _) -> Layer.compare a b)
      (List.concat_map element_rects c.elements)
  in
  let geometry =
    List.rev
      (snd
         (List.fold_left
            (fun (current, acc) (l, r) ->
              let acc =
                if current = Some l then box_command r :: acc
                else box_command r :: Ast.Layer (Layer.cif_name l) :: acc
              in
              (Some l, acc))
            (None, []) by_layer))
  in
  let ports =
    List.map
      (fun (p : Cell.port) ->
        Ast.User
          ( 9
          , Printf.sprintf "4 %s %d %d %s" (Emit.sanitize p.pname)
              (p.rect.Rect.xmin + p.rect.Rect.xmax)
              (p.rect.Rect.ymin + p.rect.Rect.ymax)
              (Layer.cif_name p.layer) ))
      c.ports
  in
  let calls =
    List.map
      (fun (i : Cell.inst) ->
        let shift = i.trans.Transform.shift in
        Ast.Call
          ( Hashtbl.find numbering i.cell.Cell.id
          , orient_ops i.trans.Transform.orient
            @ [ Ast.Translate (2 * shift.Point.x, 2 * shift.Point.y) ] ))
      c.instances
  in
  header @ geometry @ ports @ calls @ [ Ast.Def_finish ]

let file_of_cell root =
  let cells = Cell.all_cells root in
  let numbering = Hashtbl.create 64 in
  List.iteri (fun i (c : Cell.t) -> Hashtbl.add numbering c.id (i + 1)) cells;
  let defs =
    List.concat_map
      (fun (c : Cell.t) ->
        symbol_commands (Hashtbl.find numbering c.Cell.id) c numbering)
      cells
  in
  (Sc_cif.Ast.Comment "CIF 2.0 generated by the silicon compiler" :: defs)
  @ [ Sc_cif.Ast.Call (Hashtbl.find numbering root.Cell.id, []); Sc_cif.Ast.End ]

(* box commands per layer, as a CIF reader tracking L would count them *)
let census ast =
  let per_layer = Hashtbl.create 8 in
  let current = ref "" in
  List.iter
    (function
      | Sc_cif.Ast.Layer l -> current := l
      | Sc_cif.Ast.Box _ ->
        Hashtbl.replace per_layer !current
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_layer !current))
      | _ -> ())
    ast;
  let rects =
    Hashtbl.fold (fun layer n acc -> (layer, n) :: acc) per_layer []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (rects, List.fold_left (fun a (_, n) -> a + n) 0 rects)

let emit root =
  let ast = file_of_cell root in
  let rects, rects_total = census ast in
  { Sc_cif.Emit.text = Format.asprintf "%a" Sc_cif.Ast.pp ast
  ; commands = List.length ast
  ; rects
  ; rects_total
  }
