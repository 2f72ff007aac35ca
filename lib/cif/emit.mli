(** Emitting a layout hierarchy as CIF 2.0.

    Geometry is written on a half-lambda grid: every coordinate is doubled
    and the symbol scale factor is halved (DS a = 125 for a 250
    centimicron lambda), so box centres are always integers.  Wires are
    written as their covering boxes, which keeps emission/parsing exactly
    invertible on geometry; symbol names travel in the "9" user extension
    and ports in the "94" extension ([94 name cx cy layer], doubled
    coordinates).

    The writer makes one walk over {!Sc_layout.Cell.all_cells}, children
    before parents, numbering symbols in that order.  It writes each
    command straight into one buffer as it goes — the comment line; per
    symbol [DS], its name, its boxes grouped by layer (layers in
    [Layer.index] order, elements in order within a layer, each run under
    one [L]), its ports, its calls and [DF]; then the root call and [E] —
    and counts commands and boxes per layer while writing.  No command
    list is built. *)

(** [sanitize name] replaces every character outside [A-Za-z0-9_.-] with
    ['_'], so a name is one CIF token. *)
val sanitize : string -> string

type emitted =
  { text : string  (** the rendered CIF file *)
  ; commands : int  (** CIF command count *)
  ; rects : (string * int) list
        (** box count per layer, sorted by CIF layer name *)
  ; rects_total : int
  }

val emit : Sc_layout.Cell.t -> emitted
(** Render [cell] inside an ["emit"] span and return the text together
    with its geometry census — the pipeline's emit-pass artifact.  The
    ["cif.*"] counters are reported as a side effect. *)

val replay_counters : emitted -> unit
(** Re-emit the ["cif.*"] counters {!emit} would have reported — used
    by stage-cache hits so warm QoR snapshots match cold ones. *)

val to_string : Sc_layout.Cell.t -> string
(** [(emit cell).text]. *)

(** [to_channel oc cell] writes the CIF text, without the span or the
    counters. *)
val to_channel : out_channel -> Sc_layout.Cell.t -> unit

(** [write path cell] writes the CIF file at [path]. *)
val write : string -> Sc_layout.Cell.t -> unit
