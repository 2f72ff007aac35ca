(** The flat view of a cell hierarchy: its mask geometry in the root's
    coordinates.

    A view holds one rectangle array per layer.  Each array lists the
    layer's rectangles in preorder — a cell's own elements in order
    (a wire as its covering rectangles, segment by segment), then its
    instances in order, each expanded the same way.  Degenerate (empty)
    rectangles are kept, so every element of the hierarchy has its place.

    One walk builds the view.  Each master is worked out once, however
    often it is placed: its wires are expanded in its own coordinates
    and its instances' orientations read as integer matrices.  The walk
    composes matrices and shifts as plain ints and transforms each
    rectangle with {!Sc_geom.Transform.affine_rect}.  Expanding a wire and
    then transforming its rectangles gives the rectangles of the
    transformed wire, because a wire's padding is the same on all sides.

    Design-rule checking, layout statistics, extraction, CIF round-trip
    checks and rendering all read a view; a compile builds one per layout
    and shares it between its DRC and measure passes. *)

open Sc_geom
open Sc_tech

(** Per-layer arrays indexed by [Layer.index].  Readers must not mutate
    them. *)
type t = Rect.t array array

(** [view c] flattens the whole hierarchy under [c]. *)
val view : Cell.t -> t

(** [layer v l] is layer [l]'s rectangles in preorder (shared, not
    copied). *)
val layer : t -> Layer.t -> Rect.t array

(** [ports c] returns every port of every instance, transitively, in root
    coordinates, with instance-path-qualified names ("a.b.port"). *)
val ports : Cell.t -> Cell.port list
