open Sc_geom
open Sc_tech

(* conventional colours; contacts/buried drawn opaque and last *)
let style = function
  | Layer.Diffusion -> ("#2e8b57", 0.55, 1)
  | Layer.Implant -> ("#e6d800", 0.35, 0)
  | Layer.Poly -> ("#d0312d", 0.55, 2)
  | Layer.Metal -> ("#3a6ea5", 0.45, 3)
  | Layer.Buried -> ("#6b3e26", 0.9, 4)
  | Layer.Contact -> ("#111111", 0.9, 5)
  | Layer.Glass -> ("#aaaaaa", 0.5, 6)

let to_svg ?(scale = 3) cell =
  let flat = Flatten.view cell in
  let bbox = Cell.bbox_or_zero cell in
  let margin = 4 in
  let ox = bbox.Rect.xmin - margin and oy = bbox.Rect.ymax + margin in
  let w = (Rect.width bbox + (2 * margin)) * scale in
  let h = (Rect.height bbox + (2 * margin)) * scale in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        viewBox=\"0 0 %d %d\">\n<rect width=\"%d\" height=\"%d\" \
        fill=\"#f8f6f0\"/>\n"
       w h w h w h);
  (* y flips: lambda y grows upward, SVG y downward.  Layers are drawn
     in depth order, each from its last rectangle to its first. *)
  let by_depth =
    List.sort
      (fun a b ->
        let _, _, za = style a and _, _, zb = style b in
        Int.compare za zb)
      Layer.all
  in
  List.iter
    (fun l ->
      let color, opacity, _ = style l in
      let rects = Flatten.layer flat l in
      for k = Array.length rects - 1 downto 0 do
        let r = rects.(k) in
        if not (Rect.is_empty r) then
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
                fill=\"%s\" fill-opacity=\"%.2f\"/>\n"
               ((r.Rect.xmin - ox) * scale)
               ((oy - r.Rect.ymax) * scale)
               (Rect.width r * scale) (Rect.height r * scale) color opacity)
      done)
    by_depth;
  (* port markers *)
  List.iter
    (fun (p : Cell.port) ->
      let c = Rect.center p.Cell.rect in
      Buffer.add_string buf
        (Printf.sprintf
           "<circle cx=\"%d\" cy=\"%d\" r=\"%d\" fill=\"none\" \
            stroke=\"#000\" stroke-width=\"1\"/>\n\
            <text x=\"%d\" y=\"%d\" font-size=\"%d\" \
            font-family=\"monospace\">%s</text>\n"
           ((c.Point.x - ox) * scale)
           ((oy - c.Point.y) * scale)
           (2 * scale)
           (((c.Point.x - ox) * scale) + (2 * scale))
           ((oy - c.Point.y) * scale)
           (3 * scale) p.Cell.pname))
    cell.Cell.ports;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write_svg ?scale path cell =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_svg ?scale cell))
