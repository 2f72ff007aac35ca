(* The designs each workload draws from: builtins by name, generated
   designs by size.  Generated names carry the size, so a design keeps
   its name across seeds while its content changes. *)

module D = Sc_core.Designs

let builtin ?(front = Job.Gates) ?(baseline = true) name src = Job.job ~baseline ~front name src

let counter () = builtin "counter" D.counter_src
let traffic () = builtin "traffic" D.traffic_src
let alu4 () = builtin "alu4" D.alu_src
let pdp8 () = builtin "pdp8" D.pdp8_src
let system () = builtin "system" D.system_src
let counter12 () = builtin ~front:Job.Verilog "counter12" (Bench.read_file "examples/counter12.v")
let traffic_pla () = builtin ~front:Job.Pla ~baseline:false "traffic.pla" D.traffic_src
let seqdet_pla () = builtin ~front:Job.Pla ~baseline:false "seqdet.pla" D.seqdet_src

(* k-register x w-bit register-file ALU; variants of one size differ in
   their seeded opcodes and constant *)
let rf ?(variant = 0) ~seed (k, w) =
  let p = Gen.rf_params ~seed ~salt:((variant * 10000) + (k * 100) + w) ~k ~w in
  let name = Printf.sprintf "rf%dx%d%s" k w (if variant = 0 then "" else Printf.sprintf "v%d" variant) in
  Job.job ~stim:(Gen.rf_stim ~seed p) ~front:Job.Gates name (Gen.rf_module ~name p)

(* the same ALU with its register file as input ports: combinational,
   so a translation certificate stays one miter *)
let datapath ~seed (k, w) =
  let p = Gen.rf_params ~seed ~salt:((k * 100) + w + 7) ~k ~w in
  let name = Printf.sprintf "dp%dx%d" k w in
  Job.job
    ~stim:(Gen.rf_stim ~datapath:true ~seed p)
    ~front:Job.Gates name
    (Gen.rf_module ~datapath:true ~name p)

let cell_array ~seed (nx, ny, per_tile) =
  Job.job ~front:Job.Layout
    (Printf.sprintf "array%dx%dx%d" nx ny per_tile)
    (Gen.cell_array ~seed ~salt:((nx * 1000) + ny) ~nx ~ny ~per_tile)
