open Sc_geom
open Sc_tech
open Sc_layout

type violation =
  { rule : Rules.rule
  ; where : Rect.t
  ; detail : string
  }

(* split [0, n) into at most [parts] contiguous ranges *)
let ranges n parts =
  let parts = max 1 (min parts n) in
  let per = (n + parts - 1) / parts in
  List.init parts (fun k -> (k * per, min n ((k + 1) * per)))
  |> List.filter (fun (lo, hi) -> lo < hi)

(* The deck is decomposed into independent tasks (per rule, per layer,
   and — for the scan-heavy rules — per contiguous slice of the sorted
   rectangle array) and run on the worker pool.  Each task accumulates
   its own violations in scan order; concatenating the task results in
   submission order reproduces the sequential list exactly, so any [-j]
   level yields byte-identical reports. *)
let check_flat ?pool flat =
  let pool = match pool with Some p -> p | None -> Sc_par.Pool.default () in
  let by_layer = Array.make Layer.count [] in
  List.iter
    (fun (fb : Flatten.flat_box) ->
      if not (Rect.is_empty fb.rect) then
        let i = Layer.index fb.layer in
        by_layer.(i) <- fb.rect :: by_layer.(i))
    flat;
  (* xmin order fixes the order violations are reported in. *)
  let sorted = Array.map Array.of_list by_layer in
  Array.iter
    (Array.sort (fun r1 r2 -> Int.compare r1.Rect.xmin r2.Rect.xmin))
    sorted;
  let index = Array.map Rect_index.make sorted in
  let layer_rects l = sorted.(Layer.index l) in
  let shards n = ranges n (4 * Sc_par.Pool.size pool) in
  let collect f =
    let violations = ref [] in
    let add rule where detail =
      violations := { rule; where; detail } :: !violations
    in
    f add;
    List.rev !violations
  in
  (* Width: one task per layer. *)
  let width_tasks =
    List.map
      (fun l () ->
        collect (fun add ->
            let w = Rules.min_width l in
            List.iter
              (fun r ->
                let narrow = min (Rect.width r) (Rect.height r) in
                if narrow < w then
                  add (Rules.Min_width (l, w)) r
                    (Printf.sprintf "feature is %d lambda wide" narrow))
              by_layer.(Layer.index l)))
      Layer.all
  in
  (* Same-layer spacing between distinct regions: one task per layer
     (region grouping needs the whole layer). *)
  let spacing_tasks =
    List.filter_map
      (fun l ->
        let s = Rules.min_spacing l in
        if s > 0 then
          Some
            (fun () ->
              collect (fun add ->
                  let rects = layer_rects l and idx = index.(Layer.index l) in
                  let region = Rect_index.components idx in
                  Array.iteri
                    (fun i r ->
                      List.iter
                        (fun j ->
                          if j > i && region.(i) <> region.(j) then
                            add
                              (Rules.Min_spacing (l, l, s))
                              r
                              (Printf.sprintf "to %s: %d < %d"
                                 (Rect.to_string rects.(j))
                                 (Rect.separation r rects.(j))
                                 s))
                        (Rect_index.near idx (s - 1) r))
                    rects))
        else None)
      Layer.all
  in
  (* Cross-layer spacing; overlapping or abutting shapes are related
     (transistors, butting contacts) and exempt.  Both layers merge into
     one xmin-sorted array, indexed once; each pair is reported from its
     earlier member.  Sliced into index ranges across the pool. *)
  let cross_tasks =
    List.concat_map
      (fun (la, lb) ->
        let s = Rules.cross_spacing la lb in
        if s > 0 && not (Layer.equal la lb) then begin
          let ra = layer_rects la and rb = layer_rects lb in
          let merged =
            Array.append
              (Array.map (fun r -> (r, true)) ra)
              (Array.map (fun r -> (r, false)) rb)
          in
          Array.sort
            (fun (r1, t1) (r2, t2) ->
              match Int.compare r1.Rect.xmin r2.Rect.xmin with
              | 0 -> compare (t1, r1) (t2, r2)
              | c -> c)
            merged;
          let idx = Rect_index.make (Array.map fst merged) in
          List.map
            (fun (lo, hi) () ->
              collect (fun add ->
                  for i = lo to hi - 1 do
                    let ri, ti = merged.(i) in
                    List.iter
                      (fun j ->
                        let rj, tj = merged.(j) in
                        if j > i && ti <> tj then begin
                          let a, b = if ti then (ri, rj) else (rj, ri) in
                          if not (Rect.overlaps a b) then
                            add (Rules.Min_spacing (la, lb, s)) a
                              (Printf.sprintf "to %s on %s: %d < %d"
                                 (Rect.to_string b) (Layer.to_string lb)
                                 (Rect.separation a b) s)
                        end)
                      (Rect_index.near idx (s - 1) ri)
                  done))
            (shards (Array.length merged))
        end
        else [])
      [ (Layer.Poly, Layer.Diffusion) ]
  in
  (* Enclosure: the inflated inner rectangle must be covered by the union
     of the outer rectangles touching it; sliced across the pool. *)
  let enclosure_tasks =
    List.concat_map
      (fun (inner, outer) ->
        let m = Rules.enclosure ~inner ~outer in
        if m > 0 then begin
          let inners = layer_rects inner in
          let outers = layer_rects outer and idx = index.(Layer.index outer) in
          List.map
            (fun (lo, hi) () ->
              collect (fun add ->
                  for i = lo to hi - 1 do
                    let r = inners.(i) in
                    let target = Rect.inflate m r in
                    let covers =
                      List.map (Array.get outers) (Rect_index.near idx 0 target)
                    in
                    if Rect.subtract target covers <> [] then
                      add
                        (Rules.Min_enclosure (inner, outer, m))
                        r
                        (Printf.sprintf "not enclosed by %s with margin %d"
                           (Layer.to_string outer) m)
                  done))
            (shards (Array.length inners))
        end
        else [])
      [ (Layer.Contact, Layer.Metal); (Layer.Glass, Layer.Metal) ]
  in
  Sc_par.Pool.run ~label:"drc.shard" pool
    (width_tasks @ spacing_tasks @ cross_tasks @ enclosure_tasks)
  |> List.concat

let check ?pool cell =
  Sc_obs.Obs.span "drc" @@ fun () ->
  let vs = check_flat ?pool (Flatten.run cell) in
  Sc_obs.Obs.count "drc.violations" (List.length vs);
  vs

let is_clean cell = check cell = []

let pp_violation ppf v =
  Format.fprintf ppf "%a at %a: %s" Rules.pp_rule v.rule Rect.pp v.where v.detail

let report ppf = function
  | [] -> Format.fprintf ppf "DRC clean@."
  | vs ->
    Format.fprintf ppf "%d DRC violations:@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) vs
