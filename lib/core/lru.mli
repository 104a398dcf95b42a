(** The serving layer's one bounded LRU: the plan cache and the
    materialized sub-result cache are both instances (see
    [docs/serving.md]).

    Entries are keyed by string and carry a value ['v] and a validity
    stamp ['s]. Every probe revalidates the stamp with a caller-supplied
    predicate: the plan cache stamps the planning-environment
    fingerprint, the sub-result cache the (relation, epoch) pairs its
    prefix read. A stale entry is dropped, never served.

    Each instance has one size measure ([size], e.g. 1 per plan or the
    modeled MB of a table) and a [capacity] in that measure. An entry
    larger than the capacity is not stored, so a capacity of [0.] (or
    less) stores nothing. Inserting evicts least-recently-touched entries
    until the new one fits.

    Hits, misses and invalidations are disjoint: every {!find} counts
    exactly one of them. They land in {!Obs.Metrics.default} as
    [<metric>.{hits,misses,invalidations,evictions}]. Not thread-safe
    (main domain only). *)

type ('v, 's) t

type 'v lookup =
  | Hit of 'v
  | Miss
  | Invalidated  (** entry existed but its stamp no longer validates *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  entries : int;
  size : float;  (** total size of the stored entries *)
}

val create :
  metric:string -> capacity:float -> size:('v -> float) -> ('v, 's) t

(** [find t key ~valid] — [Hit] when [key] is stored and [valid] accepts
    its stamp (the entry becomes most recently used); [Invalidated] when
    it is stored but [valid] rejects the stamp (the entry is dropped);
    [Miss] otherwise. *)
val find : ('v, 's) t -> string -> valid:('s -> bool) -> 'v lookup

(** [add t key ~stamp v] stores [v] under [key], replacing any previous
    entry and evicting least-recently-used ones until it fits. *)
val add : ('v, 's) t -> string -> stamp:'s -> 'v -> unit

(** Drop every entry whose stamp [valid] rejects, counting each as an
    invalidation (frees budget without waiting for a probe). *)
val sweep : ('v, 's) t -> valid:('s -> bool) -> unit

val stats : (_, _) t -> stats

(** hits / (hits + misses + invalidations); 0 before any probe. *)
val hit_rate : (_, _) t -> float

(** ["hit"], ["miss"] or ["invalidated"]. *)
val label : _ lookup -> string
