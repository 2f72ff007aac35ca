(* The facade's pass sequence, driven layer by layer through each
   layer's public functions, with a span around every call.  The result
   must reproduce the facade's area, transistors and CIF byte for byte;
   the traced workloads count an op whose decomposition disagrees as
   failed, so the per-layer times describe the program the untraced
   runs measure. *)

open Sc_layout
module Placer = Sc_place.Placer
module Synth = Sc_synth.Synth
module Circuit = Sc_netlist.Circuit
module Chipdesc = Sc_core.Chipdesc

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Sizes and counts gathered along the way, for slopes and ratios. *)
type facts =
  { mutable gates_in : int
  ; mutable gates_out : int
  ; mutable placed : int  (** cells placed (summed over modules) *)
  ; mutable rects : int  (** flat rects of the finished layout *)
  ; mutable cif_bytes : int
  ; mutable cert_nodes : int
  ; mutable devices : int
  }

let facts () =
  { gates_in = 0; gates_out = 0; placed = 0; rects = 0; cif_bytes = 0; cert_nodes = 0; devices = 0 }

let gate_count c = List.length (Circuit.flatten c).Circuit.gates

let parse_isp src =
  Trace.span "rtl.parse" (fun () ->
      match Sc_rtl.Parser.parse src with
      | Error e -> fail "parse: %s" e
      | Ok d -> (
        match Sc_rtl.Check.check d with
        | e :: _ -> fail "parse: check: %s" e
        | [] -> d))

let parse_verilog src =
  Trace.span "verilog.parse" (fun () ->
      match Sc_verilog.Elaborate.design_of_source src with
      | Error e -> fail "verilog.parse: %s" e
      | Ok d -> d)

(* translate -> optimize -> place -> route, as the gates path does;
   [certify] also proves the optimized circuit against the raw one *)
let gates_path ?(certify = false) fx ~restarts design =
  let raw = Trace.span "synth.translate" (fun () -> Synth.translate design) in
  let r = Trace.span "synth.optimize" (fun () -> Synth.optimize_result raw) in
  let circuit = r.Synth.circuit in
  fx.gates_in <- fx.gates_in + gate_count raw;
  fx.gates_out <- fx.gates_out + gate_count circuit;
  if certify then
    Trace.span "equiv.certify" (fun () ->
        match Sc_equiv.Checker.certify ~k:4 raw circuit with
        | Ok c -> fx.cert_nodes <- fx.cert_nodes + c.Sc_equiv.Checker.cert_nodes
        | Error _ -> fail "optimize: translation certificate refused");
  let placement, layout =
    Trace.span "place" (fun () ->
        let problem = Placer.problem_of_circuit circuit in
        let pl =
          if restarts <= 0 then Placer.ordered problem
          else Placer.best_of ~seeds:restarts problem
        in
        (pl, Placer.to_layout ~name:circuit.Circuit.cname pl))
  in
  fx.placed <- fx.placed + Array.length placement.Placer.x;
  Trace.span "route" (fun () -> try ignore (Placer.route_channels placement) with _ -> ());
  (layout, circuit)

let pla_path design =
  let _, pla = Trace.span "synth.pla" (fun () -> Synth.pla_fsm design) in
  Trace.span "place" (fun () ->
      let state_bits =
        List.fold_left (fun a (d : Sc_rtl.Ast.decl) -> a + d.width) 0 design.Sc_rtl.Ast.regs
      in
      if state_bits = 0 then pla.Sc_pla.Generator.layout
      else
        let dff = Sc_stdcell.Library.layout_of Sc_netlist.Gate.Dff in
        Compose.above ~name:design.Sc_rtl.Ast.name ~sep:20
          (Compose.row ~name:"state_row" (List.init state_bits (fun _ -> dff)))
          pla.Sc_pla.Generator.layout)

(* drc -> emit -> measure, the back half of every path *)
let finish fx layout =
  let drc = Trace.span "drc" (fun () -> List.length (Sc_drc.Checker.check layout)) in
  let emitted = Trace.span "cif.emit" (fun () -> Sc_cif.Emit.emit layout) in
  let area, transistors =
    Trace.span "layout.measure" (fun () ->
        let area = Cell.area layout and transistors = Stats.transistor_count layout in
        ignore (List.length (Cell.all_cells layout));
        fx.rects <- Cell.flat_rect_count layout;
        (area, transistors))
  in
  fx.cif_bytes <- String.length emitted.Sc_cif.Emit.text;
  (emitted.Sc_cif.Emit.text, drc, area, transistors)

(* --- modular chips: per-module paths, then macro assembly ----------- *)

let bits_of_decls decls =
  List.concat_map
    (fun (d : Chipdesc.port_decl) ->
      List.init d.pd_width (fun k -> Chipdesc.bit_name (Chipdesc.Cport d.pd_name) ~width:d.pd_width k))
    decls

let assemble (chip : Chipdesc.chip_decl) mods =
  let module A = Sc_chip.Assemble in
  let sig_of name = Option.map snd (List.assoc_opt name mods) in
  let width_of = function
    | Chipdesc.Cport p -> (
      match
        List.find_opt (fun (d : Chipdesc.port_decl) -> d.pd_name = p) (chip.ch_inputs @ chip.ch_outputs)
      with
      | Some d -> d.pd_width
      | None -> fail "assemble: no chip port %s" p)
    | Chipdesc.Ipin (i, p) -> (
      let inst = List.find (fun (x : Chipdesc.instance) -> x.ci_name = i) chip.ch_insts in
      match Option.bind (sig_of inst.ci_module) (fun s -> Sc_netlist.Signature.find s p) with
      | Some ps -> ps.Sc_netlist.Signature.swidth
      | None -> fail "assemble: no pin %s.%s" i p)
  in
  let bit (b : Chipdesc.bit) = Chipdesc.bit_name b.b_end ~width:(width_of b.b_end) b.b_idx in
  match Chipdesc.resolve chip ~sigs:sig_of with
  | Error e -> fail "assemble: %s" e
  | Ok nets ->
    let macros =
      List.map
        (fun (i : Chipdesc.instance) ->
          let layout, s = List.assoc i.ci_module mods in
          let pins =
            List.concat_map
              (fun (p : Sc_netlist.Signature.port_sig) ->
                List.init p.swidth (fun k -> Chipdesc.bit_name (Chipdesc.Cport p.sname) ~width:p.swidth k))
              s.Sc_netlist.Signature.sports
          in
          { A.mi_name = i.ci_name; mi_pins = pins; mi_cell = layout })
        chip.ch_insts
    in
    let endpoint (b : Chipdesc.bit) =
      match b.b_end with
      | Chipdesc.Cport _ -> A.Chip (bit b)
      | Chipdesc.Ipin (i, _) -> A.Pin (i, bit b)
    in
    let nets =
      List.map
        (fun (n : Chipdesc.chip_net) ->
          { A.net_name = bit n.cn_src; ends = List.map endpoint (n.cn_src :: n.cn_sinks) })
        nets
    in
    let chip_ports = bits_of_decls chip.ch_inputs @ bits_of_decls chip.ch_outputs in
    let packed = A.pack ~name:(chip.ch_name ^ "_core") ~macros ~chip_ports ~nets () in
    (A.assemble ~name:chip.ch_name ~core:packed.A.core ~pads:(max 4 (List.length chip_ports)) ())
      .A.chip

let modular fx ~restarts src =
  let split = Trace.span "chip.split" (fun () -> Chipdesc.split src) in
  match split with
  | Error e -> fail "chip: %s" e
  | Ok { Chipdesc.chip = None; _ } -> fail "chip: no chip block"
  | Ok { Chipdesc.modules; chip = Some chip } ->
    let used =
      List.filter
        (fun (m : Chipdesc.source_module) ->
          List.exists (fun (i : Chipdesc.instance) -> i.ci_module = m.sm_name) chip.ch_insts)
        modules
    in
    let mods =
      List.map
        (fun (m : Chipdesc.source_module) ->
          let layout, circuit = gates_path fx ~restarts (parse_isp m.sm_text) in
          (* each module's own drc/emit/measure, as its sub-pipeline runs *)
          ignore (finish (facts ()) layout);
          (circuit.Circuit.cname, (layout, Sc_netlist.Signature.of_circuit circuit)))
        used
    in
    Trace.span "chip.assemble" (fun () -> assemble chip mods)

(* --- the whole op --------------------------------------------------- *)

(* Compile [j] layer by layer; [certify] adds the optimizer certificate
   on the gates path.  Returns the comparable output and the facts. *)
let compile ?(certify = false) (j : Job.job) =
  let fx = facts () in
  let layout =
    match j.front with
    | Job.Gates when Chipdesc.is_modular j.src -> modular fx ~restarts:j.restarts j.src
    | Job.Gates -> fst (gates_path ~certify fx ~restarts:j.restarts (parse_isp j.src))
    | Job.Verilog -> fst (gates_path ~certify fx ~restarts:j.restarts (parse_verilog j.src))
    | Job.Pla -> pla_path (parse_isp j.src)
    | Job.Layout ->
      Trace.span "lang.elaborate" (fun () ->
          match Sc_lang.Lang.compile j.src with
          | Ok c -> c
          | Error e -> fail "elaborate: %s" (Sc_lang.Lang.error_to_string e))
  in
  let cif, drc, area, transistors = finish fx layout in
  let out =
    { Job.area
    ; transistors
    ; cif_digest = Digest.to_hex (Digest.string cif)
    ; cif_bytes = String.length cif
    ; drc
    }
  in
  (out, cif, fx)

(* Sign-off of emitted CIF: read it back, DRC the read-back geometry,
   extract its transistors. *)
let signoff fx cif =
  let cell =
    Trace.span "cif.parse" (fun () ->
        match Sc_cif.Elaborate.of_string cif with
        | Ok c -> c
        | Error e -> fail "cif.parse: %s" (Sc_cif.Elaborate.error_to_string e))
  in
  let drc = Trace.span "drc" (fun () -> List.length (Sc_drc.Checker.check cell)) in
  let net = Trace.span "extract" (fun () -> Sc_extract.Extractor.extract cell) in
  fx.devices <- List.length net.Sc_extract.Extractor.devices;
  drc
