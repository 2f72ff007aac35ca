(** A static spatial index over an array of rectangles.

    Built once, then queried from any number of domains.  Rectangles are
    filed in a uniform grid of buckets whose pitch puts about four
    rectangles in a bucket (coarser when large rectangles pile up, so [n]
    rectangles never take more than [8n] entries).  A rectangle
    crossing several buckets is filed in each, so a chip-wide power rail
    costs one entry per bucket it crosses, and a query visits only the
    buckets its window covers. *)

type t

(** [make rects] indexes [rects]; indices below refer to this array. *)
val make : Rect.t array -> t

(** [near idx d r] is every [i] with [Rect.separation rects.(i) r <= d],
    in ascending order.  [near idx 0 r] is the rectangles touching or
    overlapping [r]; a negative [d] finds nothing. *)
val near : t -> int -> Rect.t -> int list

(** [components idx] labels each rectangle with the root of its
    touch-connected region (regions are closed under
    {!Rect.touches_or_overlaps}).  Pairs [(i, j)] with [i < j] are joined
    in ascending order of [i], then [j], by {!Union_find.union}, so the
    root of each region — not only the partition — is a function of the
    array order. *)
val components : t -> int array
