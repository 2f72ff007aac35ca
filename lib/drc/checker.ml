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

(* [rank.(i)] is rectangle [i]'s position once the layer is sorted by
   [xmin] with [Array.sort], the order a layer's violations are reported
   in.  Heap sort is not stable, so the indices are sorted by the same
   comparisons rather than breaking ties some other way. *)
let xmin_rank rects =
  let perm = Array.init (Array.length rects) Fun.id in
  Array.sort
    (fun i j -> Int.compare rects.(i).Rect.xmin rects.(j).Rect.xmin)
    perm;
  let rank = Array.make (Array.length rects) 0 in
  Array.iteri (fun k i -> rank.(i) <- k) perm;
  rank

(* The two layers of a cross-layer rule merged and sorted: by xmin, then
   whether on the first layer, then rectangle.  Equal entries are copies
   of one rectangle; their index in the layer ranks them. *)
let merged_compare (r1, t1, i1) (r2, t2, i2) =
  match Int.compare r1.Rect.xmin r2.Rect.xmin with
  | 0 -> (
    match compare (t1, r1) (t2, r2) with 0 -> Int.compare i1 i2 | c -> c)
  | c -> c

(* A rule is pool tasks that each find violations in any order, and
   [order], which puts everything they found into report order once the
   pool has run them.  When they found nothing, nothing is sorted. *)
let rule finds order =
  let found = Array.make (List.length finds) [] in
  ( List.mapi (fun k find () -> found.(k) <- find ()) finds
  , fun () ->
      match List.concat (Array.to_list found) with
      | [] -> []
      | fs -> order fs )

(* [rects] without its degenerate rectangles, in order; [rects] itself
   when it has none. *)
let drawn rects =
  if not (Array.exists Rect.is_empty rects) then rects
  else Array.of_seq (Seq.filter (fun r -> not (Rect.is_empty r)) (Array.to_seq rects))

(* Everything runs on the pool.  One round of tasks drops each layer's
   degenerate rectangles and indexes the rest; a second runs every rule,
   each sliced across the pool where it can be.  Rules report in a fixed
   order (width, spacing, cross-layer spacing, enclosure), so every [-j]
   level yields byte-identical reports. *)
let check_flat ?pool view =
  let pool = match pool with Some p -> p | None -> Sc_par.Pool.default () in
  let layers =
    Sc_par.Pool.map_array ~label:"drc.index" pool
      (fun all ->
        let rects = drawn all in
        (rects, Rect_index.make rects))
      view
  in
  let layer l = layers.(Layer.index l) in
  let shards n = ranges n (4 * Sc_par.Pool.size pool) in
  (* Width: one task per layer, reported in the layer's input order. *)
  let width =
    List.map
      (fun l ->
        let w = Rules.min_width l in
        let rects, _ = layer l in
        rule
          [ (fun () ->
              List.filter_map
                (fun r ->
                  let narrow = Int.min (Rect.width r) (Rect.height r) in
                  if narrow < w then
                    Some
                      { rule = Rules.Min_width (l, w)
                      ; where = r
                      ; detail =
                          Printf.sprintf "feature is %d lambda wide" narrow
                      }
                  else None)
                (Array.to_list rects)) ]
          Fun.id)
      Layer.all
  in
  (* Same-layer spacing between distinct regions: one task per layer
     (regions need the whole layer), one query per rectangle.  Touching
     pairs are joined into one region; the closer pairs that do not touch
     are kept, and those whose members end in two regions are violations,
     reported from the member earlier in xmin order. *)
  let spacing =
    List.filter_map
      (fun l ->
        let s = Rules.min_spacing l in
        let rects, idx = layer l in
        let find () =
          let u = Union_find.create (Array.length rects) in
          let close = ref [] in
          Array.iteri
            (fun i r ->
              Rect_index.iter idx (s - 1) r (fun j ->
                  if j > i then
                    if Rect.touches_or_overlaps r rects.(j) then
                      Union_find.union u i j
                    else close := (i, j) :: !close))
            rects;
          List.filter
            (fun (i, j) -> Union_find.find u i <> Union_find.find u j)
            !close
        in
        let order pairs =
          let rank = xmin_rank rects in
          List.map
            (fun (i, j) -> if rank.(i) < rank.(j) then (i, j) else (j, i))
            pairs
          |> List.sort (fun (i, j) (i', j') ->
                 match Int.compare rank.(i) rank.(i') with
                 | 0 -> Int.compare rank.(j) rank.(j')
                 | c -> c)
          |> List.map (fun (i, j) ->
                 { rule = Rules.Min_spacing (l, l, s)
                 ; where = rects.(i)
                 ; detail =
                     Printf.sprintf "to %s: %d < %d"
                       (Rect.to_string rects.(j))
                       (Rect.separation rects.(i) rects.(j))
                       s
                 })
        in
        if s > 0 then Some (rule [ find ] order) else None)
      Layer.all
  in
  (* Cross-layer spacing; overlapping or abutting shapes are related
     (transistors, butting contacts) and exempt.  Each rectangle of the
     first layer, sliced across the pool, queries the second layer's
     index.  A pair is reported from its member that [merged_compare] puts
     first, ordered by that member and then the other. *)
  let cross =
    List.filter_map
      (fun (la, lb) ->
        let s = Rules.cross_spacing la lb in
        let ra, _ = layer la and rb, idx = layer lb in
        let find (lo, hi) () =
          let found = ref [] in
          for i = lo to hi - 1 do
            let a = ra.(i) in
            Rect_index.iter idx (s - 1) a (fun j ->
                if not (Rect.overlaps a rb.(j)) then found := (i, j) :: !found)
          done;
          !found
        in
        let order pairs =
          let key (i, j) =
            let ea = (ra.(i), true, i) and eb = (rb.(j), false, j) in
            if merged_compare ea eb < 0 then (ea, eb) else (eb, ea)
          in
          List.map (fun p -> (key p, p)) pairs
          |> List.sort (fun ((e1, f1), _) ((e2, f2), _) ->
                 match merged_compare e1 e2 with
                 | 0 -> merged_compare f1 f2
                 | c -> c)
          |> List.map (fun (_, (i, j)) ->
                 let a = ra.(i) and b = rb.(j) in
                 { rule = Rules.Min_spacing (la, lb, s)
                 ; where = a
                 ; detail =
                     Printf.sprintf "to %s on %s: %d < %d" (Rect.to_string b)
                       (Layer.to_string lb) (Rect.separation a b) s
                 })
        in
        if s > 0 && not (Layer.equal la lb) then
          Some (rule (List.map find (shards (Array.length ra))) order)
        else None)
      [ (Layer.Poly, Layer.Diffusion) ]
  in
  (* Enclosure: the inflated inner rectangle must be covered by the union
     of the outer rectangles touching it; sliced across the pool. *)
  let enclosure =
    List.filter_map
      (fun (inner, outer) ->
        let m = Rules.enclosure ~inner ~outer in
        let inners, _ = layer inner and outers, idx = layer outer in
        let find (lo, hi) () =
          let found = ref [] in
          for i = lo to hi - 1 do
            let target = Rect.inflate m inners.(i) in
            (* one outer rectangle usually holds it all *)
            let inside = ref false and covers = ref [] in
            Rect_index.iter idx 0 target (fun j ->
                if Rect.contains outers.(j) target then inside := true
                else covers := outers.(j) :: !covers);
            if (not !inside) && Rect.subtract target !covers <> [] then
              found := i :: !found
          done;
          !found
        in
        let order found =
          let rank = xmin_rank inners in
          List.sort (fun i j -> Int.compare rank.(i) rank.(j)) found
          |> List.map (fun i ->
                 { rule = Rules.Min_enclosure (inner, outer, m)
                 ; where = inners.(i)
                 ; detail =
                     Printf.sprintf "not enclosed by %s with margin %d"
                       (Layer.to_string outer) m
                 })
        in
        if m > 0 then
          Some (rule (List.map find (shards (Array.length inners))) order)
        else None)
      [ (Layer.Contact, Layer.Metal); (Layer.Glass, Layer.Metal) ]
  in
  let rules = width @ spacing @ cross @ enclosure in
  ignore
    (Sc_par.Pool.run ~label:"drc.shard" pool (List.concat_map fst rules));
  List.concat_map (fun (_, order) -> order ()) rules

let check_view ?pool view =
  Sc_obs.Obs.span "drc" @@ fun () ->
  let vs = check_flat ?pool view in
  Sc_obs.Obs.count "drc.violations" (List.length vs);
  vs

let check ?pool cell =
  Sc_obs.Obs.span "drc" @@ fun () -> check_view ?pool (Flatten.view cell)

let is_clean cell = check cell = []

let pp_violation ppf v =
  Format.fprintf ppf "%a at %a: %s" Rules.pp_rule v.rule Rect.pp v.where v.detail

let report ppf = function
  | [] -> Format.fprintf ppf "DRC clean@."
  | vs ->
    Format.fprintf ppf "%d DRC violations:@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) vs
