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

let col t x = Int.max 0 (Int.min (t.cols - 1) ((x - t.box.xmin) / t.pitch))

let row t y = Int.max 0 (Int.min (t.rows - 1) ((y - t.box.ymin) / t.pitch))

let make rects =
  let n = Array.length rects in
  let box =
    if n = 0 then Rect.make 0 0 0 0
    else begin
      let x0 = ref max_int and y0 = ref max_int in
      let x1 = ref min_int and y1 = ref min_int in
      Array.iter
        (fun (r : Rect.t) ->
          x0 := Int.min !x0 r.xmin;
          y0 := Int.min !y0 r.ymin;
          x1 := Int.max !x1 r.xmax;
          y1 := Int.max !y1 r.ymax)
        rects;
      Rect.make !x0 !y0 !x1 !y1
    end
  in
  let w = Rect.width box + 1 and h = Rect.height box + 1 in
  (* Rectangle [i] crosses columns [span.(4i) .. span.(4i+1)] and rows
     [span.(4i+2) .. span.(4i+3)], worked out once per pitch tried and
     read back while filing. *)
  let span = Array.make (4 * n) 0 in
  (* About four rectangles per bucket over the bounding box, and never more
     buckets along an axis than there are rectangles.  Coarser when large
     rectangles would file more than [8n] entries, so a pile of chip-sized
     boxes cannot make the index quadratic in size. *)
  let rec fit pitch =
    let cols = ((w - 1) / pitch) + 1 and rows = ((h - 1) / pitch) + 1 in
    let start = Array.make ((cols * rows) + 1) 0 in
    let t = { rects; box; pitch; cols; rows; start; items = [||] } in
    let entries = ref 0 in
    Array.iteri
      (fun i (r : Rect.t) ->
        let c0 = col t r.xmin and c1 = col t r.xmax in
        let r0 = row t r.ymin and r1 = row t r.ymax in
        span.(4 * i) <- c0;
        span.((4 * i) + 1) <- c1;
        span.((4 * i) + 2) <- r0;
        span.((4 * i) + 3) <- r1;
        entries := !entries + ((c1 - c0 + 1) * (r1 - r0 + 1)))
      rects;
    if pitch >= max w h || !entries <= 8 * n then t else fit (2 * pitch)
  in
  let t =
    fit
      (max
         (int_of_float (sqrt (float w *. float h *. 4. /. float (max 1 n))))
         ((max w h / max 1 n) + 1))
  in
  let { cols; rows; start; _ } = t in
  let each_bucket f =
    for i = 0 to n - 1 do
      for rw = span.((4 * i) + 2) to span.((4 * i) + 3) do
        for c = span.(4 * i) to span.((4 * i) + 1) do
          f i ((rw * cols) + c)
        done
      done
    done
  in
  (* count each bucket's entries in [start.(b + 1)], then sum them up *)
  each_bucket (fun _ b -> start.(b + 1) <- start.(b + 1) + 1);
  for b = 1 to cols * rows do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let items = Array.make start.(cols * rows) 0 and fill = Array.copy start in
  each_bucket (fun i b ->
      items.(fill.(b)) <- i;
      fill.(b) <- fill.(b) + 1);
  { t with items }

let iter t d (r : Rect.t) f =
  if d >= 0 then begin
    let qx0 = r.xmin - d and qy0 = r.ymin - d in
    let qx1 = r.xmax + d and qy1 = r.ymax + d in
    let c0 = col t qx0 and c1 = col t qx1 in
    let r0 = row t qy0 and r1 = row t qy1 in
    for rw = r0 to r1 do
      (* the lowest y whose row is [rw] *)
      let y_rw = t.box.ymin + (rw * t.pitch) in
      for c = c0 to c1 do
        let x_c = t.box.xmin + (c * t.pitch) in
        let b = (rw * t.cols) + c in
        for k = t.start.(b) to t.start.(b + 1) - 1 do
          let i = t.items.(k) in
          let s = t.rects.(i) in
          (* Report a hit only from the bucket holding the lower-left corner
             of [s] ∩ window: the window's first column, or the column where
             [s] starts (likewise for rows), so a rectangle crossing several
             visited buckets is reported once. *)
          if
            s.xmin <= qx1 && qx0 <= s.xmax && s.ymin <= qy1 && qy0 <= s.ymax
            && (c = c0 || s.xmin >= x_c)
            && (rw = r0 || s.ymin >= y_rw)
          then f i
        done
      done
    done
  end

let near t d r =
  let hits = ref [] in
  iter t d r (fun i -> hits := i :: !hits);
  List.sort Int.compare !hits

let components t =
  let u = Union_find.create (Array.length t.rects) in
  Array.iteri
    (fun i r ->
      List.iter (fun j -> if j > i then Union_find.union u i j) (near t 0 r))
    t.rects;
  Array.init (Array.length t.rects) (Union_find.find u)
