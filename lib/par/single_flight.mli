(** Collapse concurrent computations of one key into a single run.

    The first caller for a key computes; callers that arrive with the
    same key while it runs block, then share its value — or re-raise its
    exception.  The entry is dropped when the computation ends, so a
    later call computes afresh: this is deduplication of work in
    flight, not a cache.  Different keys never wait on each other.

    The serve daemon deduplicates identical compile requests with one
    table, and modular compilation deduplicates identical module
    pipelines of overlapping compiles with another. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val run : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [run t key compute] — the result of one [compute ()] shared by every
    concurrent caller of [key].  The flag is [true] for the caller that
    ran [compute] and [false] for callers that joined it.  Keys compare
    structurally and hash with [Hashtbl.hash]. *)
