open Sc_geom
open Sc_tech
open Sc_layout

type device =
  { gate : int
  ; terminals : int list
  ; depletion : bool
  }

type netlist =
  { node_count : int
  ; devices : device list
  ; named : (string * int) list
  ; warnings : string list
  }

let extract cell =
  let view = Flatten.view cell in
  (* each layer's drawn rectangles, last to first: node numbers and device
     order follow from this order *)
  let layer l =
    Array.of_list
      (Array.fold_left
         (fun acc r -> if Rect.is_empty r then acc else r :: acc)
         [] (Flatten.layer view l))
  in
  let polys = layer Layer.Poly in
  let diffs = layer Layer.Diffusion in
  let metals = layer Layer.Metal in
  let contacts = layer Layer.Contact in
  let burieds = layer Layer.Buried in
  let implants = layer Layer.Implant in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  (* [r] minus the rectangles of [cuts] (indexed by [idx]) touching it *)
  let cut idx cuts r =
    Rect.subtract r (List.map (Array.get cuts) (Rect_index.near idx 0 r))
  in
  (* 1. channels: poly-over-diffusion intersections, merged when touching.
     Regions under a buried contact are direct poly-diffusion connections,
     not channels — subtract them first. *)
  let buried_idx = Rect_index.make burieds in
  let gate_arr =
    Array.of_list
      (List.concat_map (cut buried_idx burieds) (Stats.crossings polys diffs))
  in
  (* Channel groups are keyed by the root of their region and devices come
     out in hash-table order of those keys, so the roots are the ones the
     regions get when linked in xmin order: index an xmin-sorted copy and
     map its roots back. *)
  let order = Array.init (Array.length gate_arr) Fun.id in
  Array.sort
    (fun a b -> Int.compare gate_arr.(a).Rect.xmin gate_arr.(b).Rect.xmin)
    order;
  let sorted_root =
    Rect_index.components
      (Rect_index.make (Array.map (Array.get gate_arr) order))
  in
  let gate_region = Array.make (Array.length gate_arr) 0 in
  Array.iteri (fun k i -> gate_region.(i) <- order.(sorted_root.(k))) order;
  let gate_groups = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
      let key = gate_region.(i) in
      let cur = try Hashtbl.find gate_groups key with Not_found -> [] in
      Hashtbl.replace gate_groups key (r :: cur))
    gate_arr;
  (* 2. sever diffusion at the channels *)
  let gate_idx = Rect_index.make gate_arr in
  let diff_arr =
    Array.of_list
      (List.concat_map (cut gate_idx gate_arr) (Array.to_list diffs))
  in
  (* 3. conductor regions per layer *)
  let poly_idx = Rect_index.make polys in
  let diff_idx = Rect_index.make diff_arr in
  let metal_idx = Rect_index.make metals in
  let implant_idx = Rect_index.make implants in
  let poly_region = Rect_index.components poly_idx in
  let diff_region = Rect_index.components diff_idx in
  let metal_region = Rect_index.components metal_idx in
  (* 4. one node space: poly regions, then diff, then metal *)
  let np = Array.length polys
  and nd = Array.length diff_arr
  and nm = Array.length metals in
  let nodes = Union_find.create (np + nd + nm) in
  let poly_node i = poly_region.(i) in
  let diff_node i = np + diff_region.(i) in
  let metal_node i = np + nd + metal_region.(i) in
  (* nodes of the rectangles overlapping [r], highest index first *)
  let overlapping idx rects node r =
    List.fold_left
      (fun acc j -> if Rect.overlaps rects.(j) r then node j :: acc else acc)
      [] (Rect_index.near idx 0 r)
  in
  let on_poly = overlapping poly_idx polys poly_node
  and on_diff = overlapping diff_idx diff_arr diff_node in
  Array.iter
    (fun cut ->
      let ms = overlapping metal_idx metals metal_node cut in
      let ps = on_poly cut and ds = on_diff cut in
      (match ms with
      | [] -> warn "contact at %s has no metal" (Rect.to_string cut)
      | _ -> ());
      (match (ps, ds) with
      | [], [] -> warn "contact at %s reaches nothing" (Rect.to_string cut)
      | _ -> ());
      match ms @ ps @ ds with
      | first :: rest -> List.iter (Union_find.union nodes first) rest
      | [] -> ())
    contacts;
  Array.iter
    (fun b ->
      match (on_poly b, on_diff b) with
      | p :: _, d :: _ -> Union_find.union nodes p d
      | _ -> warn "buried contact at %s joins nothing" (Rect.to_string b))
    burieds;
  let find = Union_find.find nodes in
  (* 5. devices *)
  let devices =
    Hashtbl.fold
      (fun _key rects acc ->
        (* gate terminal: the poly region of a poly rect overlapping the
           channel *)
        let sample = List.hd rects in
        let gate =
          match on_poly sample with
          | g :: _ -> find g
          | [] ->
            warn "channel at %s has no poly region" (Rect.to_string sample);
            -1
        in
        (* source/drain: diffusion pieces touching any channel rect *)
        let terms = ref [] in
        List.iter
          (fun i ->
            let node = find (diff_node i) in
            if not (List.mem node !terms) then terms := node :: !terms)
          (List.sort_uniq Int.compare
             (List.concat_map (Rect_index.near diff_idx 0) rects));
        (match List.length !terms with
        | 2 -> ()
        | k ->
          warn "channel at %s has %d terminals" (Rect.to_string sample) k);
        let depletion =
          List.exists
            (fun g ->
              List.exists
                (fun k -> Rect.overlaps implants.(k) g)
                (Rect_index.near implant_idx 0 g))
            rects
        in
        { gate; terminals = !terms; depletion } :: acc)
      gate_groups []
  in
  (* 6. named nodes from ports *)
  let named =
    List.filter_map
      (fun (p : Cell.port) ->
        let first idx node_of =
          match Rect_index.near idx 0 p.rect with
          | i :: _ -> Some (find (node_of i))
          | [] -> None
        in
        let node =
          match p.layer with
          | Layer.Poly -> first poly_idx poly_node
          | Layer.Diffusion -> first diff_idx diff_node
          | Layer.Metal -> first metal_idx metal_node
          | _ -> None
        in
        match node with
        | Some n -> Some (p.pname, n)
        | None ->
          warn "port %s touches no conductor" p.pname;
          None)
      cell.Cell.ports
  in
  (* canonicalize node numbers densely *)
  let canon = Hashtbl.create 32 in
  let next = ref 0 in
  let id n =
    let r = find n in
    match Hashtbl.find_opt canon r with
    | Some v -> v
    | None ->
      let v = !next in
      incr next;
      Hashtbl.replace canon r v;
      v
  in
  let devices =
    List.map
      (fun d ->
        { d with
          gate = (if d.gate >= 0 then id d.gate else -1)
        ; terminals = List.map id d.terminals
        })
      devices
  in
  let named = List.map (fun (n, node) -> (n, id node)) named in
  { node_count = !next; devices; named; warnings = List.rev !warnings }

let node_of t name =
  match List.assoc_opt name t.named with
  | Some n -> n
  | None -> raise Not_found

let pp ppf t =
  Format.fprintf ppf "extracted: %d nodes, %d devices (%d depletion)"
    t.node_count (List.length t.devices)
    (List.length (List.filter (fun d -> d.depletion) t.devices));
  if t.warnings <> [] then
    Format.fprintf ppf ", %d warnings" (List.length t.warnings)
