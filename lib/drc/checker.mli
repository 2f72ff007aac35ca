(** Lambda design-rule checking.

    The checker flattens a cell and verifies the {!Sc_tech.Rules.deck}:

    - minimum width per rectangle (the 1979-era rectangle discipline:
      generators draw features as rectangles of legal width, so rectangle
      granularity is the right check);
    - minimum spacing between *electrically distinct* groups on a layer —
      rectangles that touch or overlap are merged into one group first, so
      abutting tiles of one wire are never flagged against each other;
    - cross-layer spacing (e.g. poly to unrelated diffusion), where shapes
      with interior overlap are exempt because a poly-over-diffusion
      crossing is a transistor, not a violation (edge abutment without
      overlap is still flagged);
    - enclosure (contact cuts inside metal, glass inside pad metal).

    Every pairwise rule asks one {!Sc_geom.Rect_index} per layer (one over
    the merged poly and diffusion array for cross-layer spacing) for the
    rectangles within reach, in both axes, so a rectangle visits only the
    buckets around it; a chip-wide rail is a few bucket entries, not a
    scan of the layer.  Regions come from {!Sc_geom.Rect_index.components};
    enclosure asks whether {!Sc_geom.Rect.subtract} leaves any of the
    inflated inner rectangle uncovered by the outer rectangles touching
    it.  Each layer is sorted by [xmin] first, and every rule reports in
    that order.

    The deck decomposes into independent tasks (per rule, per layer, per
    slice of the sorted rectangle array) executed on an {!Sc_par.Pool}
    — the process default unless [?pool] is given.  Task results are
    concatenated in submission order, so the violation list is identical
    at every pool size. *)

open Sc_geom
open Sc_tech
open Sc_layout

type violation =
  { rule : Rules.rule
  ; where : Rect.t  (** a rectangle that witnesses the violation *)
  ; detail : string
  }

val check : ?pool:Sc_par.Pool.t -> Cell.t -> violation list

(** [check_flat boxes] runs the deck on already flattened geometry. *)
val check_flat : ?pool:Sc_par.Pool.t -> Flatten.flat_box list -> violation list

val is_clean : Cell.t -> bool

val pp_violation : Format.formatter -> violation -> unit

val report : Format.formatter -> violation list -> unit
