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

    Only splitting the flattened boxes by layer runs on the calling
    domain.  The rest runs on an {!Sc_par.Pool} — the process default
    unless [?pool] is given — in two rounds of tasks.  The first builds
    one {!Sc_geom.Rect_index} per layer, over the layer's input order.
    The second runs the rules: width per layer; spacing per layer, where
    one {!Sc_geom.Rect_index.iter} query per rectangle joins touching
    pairs into regions and keeps the closer pairs that do not touch as
    candidates; cross-layer spacing, where each poly rectangle queries the
    diffusion index; and enclosure, which asks whether
    {!Sc_geom.Rect.subtract} leaves any of the inflated inner rectangle
    uncovered by the outer rectangles touching it.  The last two are
    sliced across the pool.  A rectangle visits only the buckets around
    it, so a chip-wide rail is a few bucket entries, not a scan of the
    layer.

    Violations are found in any order.  Only when a rule finds some are
    they sorted into report order: for a layer, each rectangle's position
    once the layer is heap-sorted by [xmin] ([Array.sort]); for the
    poly/diffusion rule, the total order of the two layers merged by
    [xmin], then layer, then rectangle.  A clean layout therefore never
    sorts.  Rules report in deck order — width, spacing, cross-layer
    spacing, enclosure — so the violation list is identical at every
    pool size. *)

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
