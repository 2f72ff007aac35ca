(** Disjoint sets over [0 .. n-1] with path compression.

    There is no union by rank: [union u a b] always links the root of
    [a]'s set under the root of [b]'s, so which element ends up the root
    depends only on the sequence of unions.  Callers that key results by
    root (the extractor's channel groups) rely on that. *)

type t

val create : int -> t

(** The root of [i]'s set. *)
val find : t -> int -> int

val union : t -> int -> int -> unit
