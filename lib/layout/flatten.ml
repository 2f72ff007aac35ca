open Sc_geom
open Sc_tech

type t = Rect.t array array

(* A master, worked out once however often it is placed: its own
   rectangles in its own coordinates (element order, each wire expanded
   to its covering rectangles), the layer of each, its instances with
   their orientation matrices and shifts as ints, and how many flat
   rectangles of each layer it stands for. *)
type master =
  { own_layer : int array
  ; own : Rect.t array
  ; subs : sub array
  ; counts : int array
  }

and sub =
  { m : master
  ; a : int
  ; b : int
  ; c : int
  ; d : int
  ; tx : int
  ; ty : int
  }

let master_of root =
  let memo = Hashtbl.create 64 in
  let rec master (cell : Cell.t) =
    match Hashtbl.find_opt memo cell.id with
    | Some m -> m
    | None ->
      let own =
        Array.of_list
          (List.concat_map
             (function
               | Cell.Box (l, r) -> [ (Layer.index l, r) ]
               | Cell.Wire (l, p) ->
                 let k = Layer.index l in
                 List.map (fun r -> (k, r)) (Path.to_rects p))
             cell.elements)
      in
      let counts = Array.make Layer.count 0 in
      Array.iter (fun (k, _) -> counts.(k) <- counts.(k) + 1) own;
      let subs =
        Array.of_list
          (List.map
             (fun (i : Cell.inst) ->
               let m = master i.cell in
               Array.iteri (fun k n -> counts.(k) <- counts.(k) + n) m.counts;
               let a, b, c, d = Transform.matrix i.trans.Transform.orient in
               { m
               ; a
               ; b
               ; c
               ; d
               ; tx = i.trans.Transform.shift.Point.x
               ; ty = i.trans.Transform.shift.Point.y
               })
             cell.instances)
      in
      let m =
        { own_layer = Array.map fst own; own = Array.map snd own; subs; counts }
      in
      Hashtbl.add memo cell.id m;
      m
  in
  master root

let empty_rect = Rect.make 0 0 0 0

(* One walk in preorder.  The transform from a master's coordinates to
   the root's is the matrix [| a b; c d |] and the shift (sx, sy);
   placing an instance composes its own matrix and shift onto it. *)
let view root =
  let top = master_of root in
  let out = Array.map (fun n -> Array.make n empty_rect) top.counts in
  let fill = Array.make Layer.count 0 in
  let rec walk m a b c d sx sy =
    let identity = a = 1 && d = 1 && sx = 0 && sy = 0 in
    for k = 0 to Array.length m.own - 1 do
      let l = m.own_layer.(k) and r = m.own.(k) in
      out.(l).(fill.(l)) <-
        (if identity then r else Transform.affine_rect a b c d sx sy r);
      fill.(l) <- fill.(l) + 1
    done;
    Array.iter
      (fun s ->
        walk s.m
          ((a * s.a) + (b * s.c))
          ((a * s.b) + (b * s.d))
          ((c * s.a) + (d * s.c))
          ((c * s.b) + (d * s.d))
          ((a * s.tx) + (b * s.ty) + sx)
          ((c * s.tx) + (d * s.ty) + sy))
      m.subs
  in
  walk top 1 0 0 1 0 0;
  out

let layer v l = v.(Layer.index l)

let ports root =
  let rec go prefix trans (c : Cell.t) acc =
    let acc =
      List.fold_left
        (fun acc (p : Cell.port) ->
          { p with
            Cell.pname = (if prefix = "" then p.pname else prefix ^ "." ^ p.pname)
          ; rect = Transform.apply_rect trans p.rect
          }
          :: acc)
        acc c.ports
    in
    List.fold_left
      (fun acc (i : Cell.inst) ->
        let prefix' =
          if prefix = "" then i.inst_name else prefix ^ "." ^ i.inst_name
        in
        go prefix' (Transform.compose trans i.trans) i.cell acc)
      acc c.instances
  in
  go "" Transform.identity root []
