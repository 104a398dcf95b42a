(** Vectorized (column-at-a-time) kernel implementations.

    Each [try_*] function is the columnar counterpart of the kernel of
    the same name in {!Kernel}. It returns [Some table] — byte-identical
    to the row kernel's output: same schema, same rows, same order —
    when the columnar path applies, and [None] when the caller must fall
    back to the row path. Fallback triggers are: the gate
    ({!Column.enabled}) is off, or, each counted under
    [kernel.fallback.<reason>] in {!Obs.Metrics.default}:
    - [not_vectorizable]: the expression is not {!Vector.vectorizable}
      or a SELECT predicate is not boolean; join keys of two different
      types; SUM/AVG over a non-numeric column;
    - [float_key]: a float join or group key, whose NaN behavior under
      structural equality is row-specific;
    - [empty_keyless]: a keyless AGG over an empty input, whose one row
      of initial aggregate states only the row kernel builds.

    {!Kernel} counts its row-only kernels through {!note_fallback}:
    [set_op] (bag and set union, distinct, intersect, difference) and
    [row_only] (left outer, semi and anti joins).

    Exceptions the row path would raise (unknown columns, ill-typed
    predicates evaluated on live rows, [Division_by_zero]) propagate
    from here with identical payloads — never swallowed into [None]. *)

(** [note_fallback reason] increments [kernel.fallback.<reason>] in
    {!Obs.Metrics.default} while the gate is on; nothing when it is
    off, where every kernel runs on rows by choice. *)
val note_fallback : string -> unit

(** Row count at or above which chunkable columnar kernels (select,
    map_column) split across the {!Pool} domains. Re-exported by
    {!Kernel.par_threshold}. *)
val par_threshold : int

val try_select : Table.t -> Expr.t -> Table.t option

val try_project : Table.t -> string list -> Table.t option

val try_map_column :
  Table.t -> target:string -> expr:Expr.t -> Table.t option

(** Hash equi-join, build side = left, probe in right-row order with
    per-key match lists in the serial kernel's [Hashtbl.find_all] order.
    Runs serially at every jobs setting (the hash build dominates and
    chunking regressed it), so jobs = 1 and jobs = 4 are trivially
    identical. *)
val try_join :
  Table.t -> Table.t -> left_key:string -> right_key:string ->
  Table.t option

(** Grouping on any number of int/string/bool keys (none for a keyless
    AGG over a non-empty input) with typed accumulators. Each key
    becomes a code in [\[0, card)] (dictionary codes for strings, 0/1
    for bools, shifted or densified ints); each group gets a dense id
    by mapping (previous id, next key's code) to a fresh id, so group
    order is the first appearance of the full key tuple, as in the
    serial kernel. *)
val try_group_by :
  Table.t -> keys:string list -> aggs:Aggregate.t list -> Table.t option

(** Cartesian product, left-major: output row [i] pairs left row
    [i / nr] with right row [i mod nr] ([nr] right rows), built by
    gathering every column. The schema is {!Schema.concat}'s, with
    clashing right names prefixed ["r_"]. Never falls back. *)
val try_cross : Table.t -> Table.t -> Table.t option

(** Fused SELECT/PROJECT/MAP chains evaluated as column chunks with a
    selection vector threaded between stages ({!Fused} calls this before
    its row loop). [compile_error]s — unknown columns, ill-typed MAP
    expressions — are raised by {!Fused.compile} before this runs, so
    both paths fail identically. *)
val try_fused : Table.t -> Fused_step.t list -> Table.t option
