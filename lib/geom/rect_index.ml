(* A uniform bucket grid over the rectangles' bounding box.  Bucket
   [b = row * cols + col] holds the rectangles crossing it, one word each:
   [items.(start.(b)) .. items.(start.(b + 1) - 1)]. *)
type t =
  { rects : Rect.t array
  ; box : Rect.t
  ; pitch : int
  ; cols : int
  ; rows : int
  ; start : int array
  ; items : int array
  }

let col t x = max 0 (min (t.cols - 1) ((x - t.box.xmin) / t.pitch))

let row t y = max 0 (min (t.rows - 1) ((y - t.box.ymin) / t.pitch))

let make rects =
  let n = Array.length rects in
  let box =
    if n = 0 then Rect.make 0 0 0 0
    else Array.fold_left Rect.union_bbox rects.(0) rects
  in
  let w = Rect.width box + 1 and h = Rect.height box + 1 in
  (* About four rectangles per bucket over the bounding box, and never more
     buckets along an axis than there are rectangles.  Coarser when large
     rectangles would file more than [8n] entries, so a pile of chip-sized
     boxes cannot make the index quadratic in size. *)
  let entries p =
    Array.fold_left
      (fun acc (r : Rect.t) ->
        let span lo hi v0 = ((hi - v0) / p) - ((lo - v0) / p) + 1 in
        acc + (span r.xmin r.xmax box.xmin * span r.ymin r.ymax box.ymin))
      0 rects
  in
  let rec coarsen p =
    if p >= max w h || entries p <= 8 * n then p else coarsen (2 * p)
  in
  let pitch =
    coarsen
      (max
         (int_of_float (sqrt (float w *. float h *. 4. /. float (max 1 n))))
         ((max w h / max 1 n) + 1))
  in
  let cols = ((w - 1) / pitch) + 1 and rows = ((h - 1) / pitch) + 1 in
  let start = Array.make ((cols * rows) + 1) 0 in
  let t = { rects; box; pitch; cols; rows; start; items = [||] } in
  (* [f i b] for every bucket [b] that rectangle [i] crosses *)
  let file f =
    Array.iteri
      (fun i (r : Rect.t) ->
        for rw = row t r.ymin to row t r.ymax do
          for c = col t r.xmin to col t r.xmax do
            f i ((rw * cols) + c)
          done
        done)
      rects
  in
  file (fun _ b -> start.(b + 1) <- start.(b + 1) + 1);
  for b = 1 to cols * rows do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let items = Array.make start.(cols * rows) 0 and fill = Array.copy start in
  file (fun i b ->
      items.(fill.(b)) <- i;
      fill.(b) <- fill.(b) + 1);
  { t with items }

let near t d (r : Rect.t) =
  let q = Rect.make (r.xmin - d) (r.ymin - d) (r.xmax + d) (r.ymax + d) in
  let hits = ref [] in
  if d >= 0 then
    for rw = row t q.ymin to row t q.ymax do
      for c = col t q.xmin to col t q.xmax do
        let b = (rw * t.cols) + c in
        for k = t.start.(b) to t.start.(b + 1) - 1 do
          let i = t.items.(k) in
          let s = t.rects.(i) in
          (* Report a hit only from the bucket holding the lower-left corner
             of [s] ∩ [q], so a rectangle crossing several visited buckets
             is reported once. *)
          if
            Rect.touches_or_overlaps s q
            && col t (max s.xmin q.xmin) = c
            && row t (max s.ymin q.ymin) = rw
          then hits := i :: !hits
        done
      done
    done;
  List.sort Int.compare !hits

let components t =
  let u = Union_find.create (Array.length t.rects) in
  Array.iteri
    (fun i r ->
      List.iter (fun j -> if j > i then Union_find.union u i j) (near t 0 r))
    t.rects;
  Array.init (Array.length t.rects) (Union_find.find u)
