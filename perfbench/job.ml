(* One design the benchmark compiles, how it enters the program, and the
   facts its output checks need. *)

module C = Sc_core.Compiler
module Diag = Sc_pipeline.Diag

type front =
  | Gates  (** ISP through standard cells ([compile_behavior]) *)
  | Pla  (** ISP through [Pla_control] *)
  | Verilog  (** [compile_verilog] *)
  | Layout  (** layout language ([compile_layout]) *)

type job =
  { name : string  (** design name; the baseline file name for builtins *)
  ; front : front
  ; src : string
  ; restarts : int
  ; baseline : bool  (** [bench/baselines/<name>.json] holds its QoR *)
  ; stim : (int -> (string * int) list) option
        (** generated flat ISP designs: stimulus for the check against
            the RTL interpreter *)
  }

let job ?(restarts = 0) ?(baseline = false) ?stim ~front name src =
  { name; front; src; restarts; baseline; stim }

let front_name = function
  | Gates -> "gates"
  | Pla -> "pla"
  | Verilog -> "verilog"
  | Layout -> "layout"

(* Identity of a (design, restarts) pair. *)
let key j = Digest.to_hex (Digest.string (Printf.sprintf "%s|%d|%s" (front_name j.front) j.restarts j.src))

(* What every op's result is compared on. *)
type out =
  { area : int
  ; transistors : int
  ; cif_digest : string
  ; cif_bytes : int
  ; drc : int
  }

let out_of (c : C.compiled) =
  { area = c.area
  ; transistors = c.transistors
  ; cif_digest = Digest.to_hex (Digest.string c.cif)
  ; cif_bytes = String.length c.cif
  ; drc = c.drc_violations
  }

let same a b =
  a.area = b.area && a.transistors = b.transistors && a.cif_digest = b.cif_digest

(* The facade call a user's [scc] invocation makes.  Failures — a Diag
   or an escaped exception — are values. *)
let compile ?recorder j : (C.compiled * Sc_netlist.Circuit.t option, string) result =
  let flat r = Result.map (fun (c, circ) -> (c, Some circ)) r in
  match
    match j.front with
    | Gates -> flat (C.compile_behavior ?recorder ~restarts:j.restarts j.src)
    | Pla -> flat (C.compile_behavior ?recorder ~style:C.Pla_control ~restarts:j.restarts j.src)
    | Verilog -> flat (C.compile_verilog ?recorder ~restarts:j.restarts j.src)
    | Layout -> Result.map (fun c -> (c, None)) (C.compile_layout ?recorder j.src)
  with
  | Ok r -> Ok r
  | Error d -> Error (Diag.to_string d)
  | exception e -> Error (Printexc.to_string e)
