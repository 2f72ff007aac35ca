open Sc_geom
open Sc_tech

type t =
  { cell_name : string
  ; bbox_area : int
  ; width : int
  ; height : int
  ; layer_area : int array
  ; transistors : int
  ; rects : int
  ; cells : int
  ; instances : int
  }

let crossings polys diffs =
  let idx = Rect_index.make diffs in
  Array.to_list polys
  |> List.concat_map (fun p ->
         List.filter_map
           (fun j -> Rect.inter p diffs.(j))
           (Rect_index.near idx 0 p))

let layer_areas v =
  Array.map (Array.fold_left (fun acc r -> acc + Rect.area r) 0) v

(* A gate drawn in several boxes is one touch-connected region of
   crossings, so it counts once: one per region root. *)
let transistors v =
  let region =
    Rect_index.components
      (Rect_index.make
         (Array.of_list
            (crossings (Flatten.layer v Layer.Poly) (Flatten.layer v Layer.Diffusion))))
  in
  List.length (List.filteri (fun i r -> i = r) (Array.to_list region))

let transistor_count c = transistors (Flatten.view c)

let count_instances root =
  let memo = Hashtbl.create 64 in
  let rec go (c : Cell.t) =
    match Hashtbl.find_opt memo c.id with
    | Some n -> n
    | None ->
      let n =
        List.fold_left
          (fun acc (i : Cell.inst) -> acc + 1 + go i.cell)
          0 c.instances
      in
      Hashtbl.add memo c.id n;
      n
  in
  go root

let measure c =
  let v = Flatten.view c in
  { cell_name = c.Cell.name
  ; bbox_area = Cell.area c
  ; width = Cell.width c
  ; height = Cell.height c
  ; layer_area = layer_areas v
  ; transistors = transistors v
  ; rects = Cell.flat_rect_count c
  ; cells = List.length (Cell.all_cells c)
  ; instances = count_instances c
  }

let layer_area t l = t.layer_area.(Layer.index l)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cell %s: %dx%d lambda (area %d)@ transistors %d, rects %d, cells %d, insts %d@]"
    t.cell_name t.width t.height t.bbox_area t.transistors t.rects t.cells
    t.instances
