(* Seeded input generators.  Every design the benchmark compiles that is
   not a builtin comes from here; the program under test only ever sees
   the generated text.  The size of a design is fixed by its parameters
   (registers, width, array extent); the seed only permutes opcode
   encodings, picks constants and cell mixes, so two seeds give designs
   of the same shape and nearly the same cost. *)

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

let log2 k =
  let rec go n b = if n >= k then b else go (2 * n) (b + 1) in
  go 1 0

(* a pure hash of (seed, cycle, field), for stimulus functions the
   simulators may call more than once per cycle *)
let mix seed cycle field =
  let h = ref (seed * 0x9e3779b1 + cycle * 0x85ebca6b + field * 0xc2b2ae35) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x7feb352d;
  h := !h lxor (!h lsr 15);
  h := !h * 0x846ca68b;
  !h lxor (!h lsr 16) land max_int

let mask w = (1 lsl w) - 1

let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1)

(* --- register-file ALUs ----------------------------------------------- *)

type rf =
  { k : int  (** registers, a power of two *)
  ; w : int  (** bits per register, at most 30 (the ISP width limit) *)
  ; opcodes : int array  (** operation -> opcode, a permutation of 0..7 *)
  ; xor_const : int  (** the constant of the [a ^ C] operation *)
  }

let rf_params ~seed ~salt ~k ~w =
  if w < 2 || w > 30 then invalid_arg "Gen.rf_params: width must be 2..30";
  if k < 2 || k land (k - 1) <> 0 then
    invalid_arg "Gen.rf_params: register count must be a power of two >= 2";
  let st = rng ~seed ~salt in
  let shuffled n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let opcodes = shuffled 8 in
  (* half the bits set, in seeded places: the constant's popcount, and
     so the gates it costs, is the same for every seed *)
  let bits = shuffled w in
  let xor_const = ref 0 in
  for i = 0 to ((w + 1) / 2) - 1 do
    xor_const := !xor_const lor (1 lsl bits.(i))
  done;
  { k; w; opcodes; xor_const = !xor_const }

(* The [n]-th (mod their count) w-bit value with half the bits set, in
   increasing order: edits that step [n] change the constant but not
   its popcount.  Enumerates all 2^w values, so only for small widths. *)
let half_set ~w n =
  if w > 16 then invalid_arg "Gen.half_set: width above 16";
  let half = (w + 1) / 2 in
  let values = List.filter (fun v -> popcount v = half) (List.init (1 lsl w) Fun.id) in
  List.nth values (n mod List.length values)

(* [datapath] turns the register file into input ports: the design is
   combinational (read ports, operation, result), so its translation
   certificate is one miter rather than a bounded unrolling, which a
   register file makes exponential. *)
let rf_module ?(datapath = false) ~name p =
  let s = log2 p.k in
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  let regs = String.concat ", " (List.init p.k (fun i -> Printf.sprintf "r%d[%d]" i p.w)) in
  line "module %s;" name;
  if datapath then line "inputs op[3], ra[%d], rb[%d], imm[%d], %s;" s s p.w regs
  else begin
    line "inputs reset[1], we[1], op[3], rd[%d], ra[%d], rb[%d], imm[%d];" s s s p.w;
    line "registers %s;" regs
  end;
  line "outputs y[%d], z[1];" p.w;
  line "wires a[%d], b[%d], res[%d];" p.w p.w p.w;
  line "behavior";
  let select dst sel =
    line "  %s := r0;" dst;
    line "  decode %s" sel;
    for i = 1 to p.k - 1 do
      line "    %d: %s := r%d;" i dst i
    done;
    line "  end"
  in
  select "a" "ra";
  select "b" "rb";
  line "  res := a;";
  line "  decode op";
  let ops = [| "a + b"; "a - b"; "a & b"; "a | b"; ""; "a + imm"; "~b"; "imm" |] in
  Array.iteri
    (fun i e ->
      (* the [a ^ C] line is the one an edit rewrites: a new constant is
         a one-line change that keeps the design's shape *)
      if i = 4 then line "    %d: res := a ^ %d;" p.opcodes.(i) p.xor_const
      else line "    %d: res := %s;" p.opcodes.(i) e)
    ops;
  line "  end";
  if not datapath then begin
    line "  if reset == 1 then";
    for i = 0 to p.k - 1 do
      line "    r%d := 0;" i
    done;
    line "  else";
    line "    if we == 1 then";
    line "      decode rd";
    for i = 0 to p.k - 1 do
      line "        %d: r%d := res;" i i
    done;
    line "      end";
    line "    end";
    line "  end"
  end;
  line "  y := res;";
  line "  z := res == 0;";
  line "end";
  Buffer.contents b

(* Reset on cycle 0, then seeded traffic on every input. *)
let rf_stim ?(datapath = false) ~seed p cycle =
  let s = log2 p.k in
  let f i m = mix seed cycle i land m in
  let common = [ ("op", f 2 7); ("ra", f 4 (mask s)); ("rb", f 5 (mask s)); ("imm", f 6 (mask p.w)) ] in
  if datapath then common @ List.init p.k (fun i -> (Printf.sprintf "r%d" i, f (7 + i) (mask p.w)))
  else
    ("reset", if cycle = 0 then 1 else 0)
    :: ("we", if f 1 3 = 0 then 0 else 1)
    :: ("rd", f 3 (mask s))
    :: common

(* --- multi-module chips ------------------------------------------------ *)

(* [k] register-file modules under one chip block.  Module [i]'s
   immediate input is module [i-1]'s result, so the chip is one chain;
   the first module's immediate and every control input come from chip
   pins, and each module's zero flag is a chip output. *)
let chip_source ~name (mods : (string * rf) list) =
  let b = Buffer.create 8192 in
  List.iter (fun (mname, p) -> Buffer.add_string b (rf_module ~name:mname p); Buffer.add_char b '\n') mods;
  let p0 = snd (List.hd mods) in
  let s = log2 p0.k in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') fmt in
  line "chip %s;" name;
  line "inputs reset[1], we[1], op[3], rd[%d], ra[%d], rb[%d], imm[%d];" s s s p0.w;
  line "outputs %s;"
    (String.concat ", "
       (List.mapi
          (fun i (_, (p : rf)) ->
            if i = List.length mods - 1 then Printf.sprintf "y[%d], z%d[1]" p.w i
            else Printf.sprintf "z%d[1]" i)
          mods));
  line "instances";
  List.iteri (fun i (mname, _) -> line "  u%d : %s;" i mname) mods;
  line "connect";
  List.iteri
    (fun i _ ->
      List.iter (fun pin -> line "  u%d.%s = %s;" i pin pin) [ "reset"; "we"; "op"; "rd"; "ra"; "rb" ];
      if i = 0 then line "  u0.imm = imm;" else line "  u%d.imm = u%d.y;" i (i - 1);
      line "  z%d = u%d.z;" i i)
    mods;
  line "  y = u%d.y;" (List.length mods - 1);
  line "end";
  Buffer.contents b

(* --- layout-language cell arrays ------------------------------------- *)

let array_cells = [| "nand2()"; "nor2()"; "inv()"; "xor2()"; "and2()"; "or2()"; "mux2()"; "nand3()" |]

(* [ny] rows of [nx] tiles; a tile abuts the first [per_tile] standard
   cells of {!array_cells} (cycling) in a seeded order, so every seed
   draws the same cells.  Rows are separated by a 10 lambda gap, which
   keeps the array DRC-clean. *)
let cell_array ~seed ~salt ~nx ~ny ~per_tile =
  let st = rng ~seed ~salt in
  let cells =
    List.init per_tile (fun i -> (Random.State.bits st, array_cells.(i mod Array.length array_cells)))
    |> List.sort compare |> List.map snd
  in
  let tile =
    match List.rev cells with
    | [] -> "inv()"
    | last :: rest -> List.fold_left (fun acc c -> Printf.sprintf "beside(%s, %s)" c acc) last rest
  in
  Printf.sprintf
    "cell tile() { inst %s at (0,0); }\n\
     cell main() {\n\
    \  for j = 0 to %d { inst rowof(%d, tile()) at (0, j*(height(tile())+10)); }\n\
     }\n"
    tile (ny - 1) nx
