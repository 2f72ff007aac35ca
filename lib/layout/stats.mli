(** Layout statistics.

    The paper's comparisons (compiled vs. manual design, E1/E2) are made in
    terms of area and device count; this module measures both from the
    geometry itself, so the numbers do not depend on how a layout was
    produced. *)

open Sc_tech

type t =
  { cell_name : string
  ; bbox_area : int  (** bounding-box area, square lambda *)
  ; width : int
  ; height : int
  ; layer_area : int array  (** drawn area per layer, by [Layer.index] *)
  ; transistors : int  (** poly-diffusion crossings in the flat layout *)
  ; rects : int  (** flattened rectangle count *)
  ; cells : int  (** distinct cells in the hierarchy *)
  ; instances : int  (** total instantiations, transitively *)
  }

(** [measure c] flattens [c] once ({!Flatten.view}) and reads every
    geometric figure from that view. *)
val measure : Cell.t -> t

(** [crossings polys diffs] is every non-empty poly∩diffusion overlap, one
    per overlapping pair, poly-major in array order and then in diffusion
    order.  Both transistor counting and circuit extraction start here. *)
val crossings :
  Sc_geom.Rect.t array -> Sc_geom.Rect.t array -> Sc_geom.Rect.t list

(** [transistors v] counts distinct poly-over-diffusion overlap regions
    in a flat view; overlapping poly rectangles over one diffusion strip
    are merged so a gate drawn as two abutting boxes counts once.  The
    count does not depend on the order of the view's rectangles. *)
val transistors : Flatten.t -> int

(** [transistor_count c] is [transistors (Flatten.view c)]. *)
val transistor_count : Cell.t -> int

(** [layer_areas v] is the total rectangle area per layer of a flat view
    (double-counting overlaps), indexed by [Layer.index]. *)
val layer_areas : Flatten.t -> int array

val layer_area : t -> Layer.t -> int

val pp : Format.formatter -> t -> unit
