open Sc_geom
open Sc_tech
open Sc_layout

(* Coordinates are doubled on output so that centres of odd-sized boxes stay
   integral; the DS scale is halved to compensate. *)
let scale_a = Rules.centimicrons_per_lambda / 2
let scale_b = 1

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
      | _ -> '_')
    name

(* decimal, as [string_of_int] prints it, without the string *)
let add_int buf n =
  let rec digits n =
    (* n <= 0, so [min_int] needs no special case *)
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if n < 0 then Buffer.add_char buf '-';
  digits (if n < 0 then n else -n)

(* the CIF spelling of each orientation, before the translation *)
let orient_ops : Transform.orient -> string = function
  | Transform.R0 -> ""
  | Transform.R90 -> " R 0 1"
  | Transform.R180 -> " R -1 0"
  | Transform.R270 -> " R 0 -1"
  | Transform.MX -> " M Y"
  | Transform.MY -> " M X"
  | Transform.MX90 -> " M Y R 0 1"
  | Transform.MY90 -> " M X R 0 1"

type emitted =
  { text : string
  ; commands : int
  ; rects : (string * int) list
  ; rects_total : int
  }

(* One walk over [Cell.all_cells], writing each command as it is decided
   and counting commands and boxes per layer on the way.  A symbol's
   geometry is grouped by layer (in [Layer.index] order, element order
   within a layer) so each run needs a single L command. *)
let render root =
  let cells = Cell.all_cells root in
  let numbering = Hashtbl.create 64 in
  List.iteri (fun i (c : Cell.t) -> Hashtbl.replace numbering c.id (i + 1)) cells;
  let buf = Buffer.create 65536 in
  let commands = ref 0 in
  let boxes = Array.make Layer.count 0 in
  let str s = Buffer.add_string buf s in
  let int n = add_int buf n in
  let sp () = Buffer.add_char buf ' ' in
  let finish () =
    str ";\n";
    incr commands
  in
  let box li (r : Rect.t) =
    str "B ";
    int (2 * Rect.width r);
    sp ();
    int (2 * Rect.height r);
    sp ();
    int (r.xmin + r.xmax);
    sp ();
    int (r.ymin + r.ymax);
    finish ();
    boxes.(li) <- boxes.(li) + 1
  in
  let symbol (c : Cell.t) =
    str "DS ";
    int (Hashtbl.find numbering c.id);
    sp ();
    int scale_a;
    sp ();
    int scale_b;
    finish ();
    (match sanitize c.name with
    | "" -> str "9"
    | name ->
      str "9 ";
      str name);
    finish ();
    List.iter
      (fun l ->
        let li = Layer.index l in
        let started = ref false in
        let emit_box r =
          if not !started then begin
            started := true;
            str "L ";
            str (Layer.cif_name l);
            finish ()
          end;
          box li r
        in
        List.iter
          (function
            | Cell.Box (l', r) -> if Layer.index l' = li then emit_box r
            | Cell.Wire (l', p) ->
              if Layer.index l' = li then List.iter emit_box (Path.to_rects p))
          c.elements)
      Layer.all;
    (* "94 name x y layer": user extension 9, subcommand 4 (point label);
       xmin+xmax is the exact doubled centre in half-lambda units *)
    List.iter
      (fun (p : Cell.port) ->
        str "9 4 ";
        str (sanitize p.pname);
        sp ();
        int (p.rect.xmin + p.rect.xmax);
        sp ();
        int (p.rect.ymin + p.rect.ymax);
        sp ();
        str (Layer.cif_name p.layer);
        finish ())
      c.ports;
    List.iter
      (fun (i : Cell.inst) ->
        str "C ";
        int (Hashtbl.find numbering i.cell.id);
        str (orient_ops i.trans.orient);
        str " T ";
        int (2 * i.trans.shift.x);
        sp ();
        int (2 * i.trans.shift.y);
        finish ())
      c.instances;
    str "DF";
    finish ()
  in
  str "(CIF 2.0 generated by the silicon compiler)";
  finish ();
  List.iter symbol cells;
  str "C ";
  int (Hashtbl.find numbering root.id);
  finish ();
  str "E\n";
  incr commands;
  let rects =
    List.filter_map
      (fun l ->
        match boxes.(Layer.index l) with
        | 0 -> None
        | n -> Some (Layer.cif_name l, n))
      Layer.all
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { text = Buffer.contents buf
  ; commands = !commands
  ; rects
  ; rects_total = Array.fold_left ( + ) 0 boxes
  }

let replay_counters e =
  Sc_obs.Obs.count "cif.commands" e.commands;
  Sc_obs.Obs.count "cif.bytes" (String.length e.text);
  List.iter (fun (l, n) -> Sc_obs.Obs.count ("cif.rects." ^ l) n) e.rects;
  Sc_obs.Obs.count "cif.rects" e.rects_total

let emit cell =
  Sc_obs.Obs.span "emit" @@ fun () ->
  let e = render cell in
  replay_counters e;
  e

let to_string cell = (emit cell).text

let to_channel oc cell = output_string oc (render cell).text

let write path cell =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc cell)
