(** The serving layer's one flight table (see [docs/serving.md]): a
    single epoch registry and a single co-admission window shared by
    cross-workflow scans and cross-workflow subplans.

    {b Epochs.} Every relation has an epoch. {!note_write} bumps it;
    engines call it for every relation they materialize while a table
    is in scope ({!with_scope}), and the service calls it when a client
    overwrites an input. Every entry records the epochs of the
    relations it read and stops matching once one of them moves.

    {b Flights.} A flight is one admitted workflow execution. Entries
    paid by a flight expire at {!end_flight}: sharing only spans
    workflows whose flights overlap. Entries paid outside any flight
    never expire (an everlasting table — what tests use).

    {b Entries} come in two payloads under one rule set:
    - a {e scan} entry is accounting only. The table holds no bytes for
      it: jobs always fetch from {!Hdfs}, so results are byte-identical
      with or without sharing. The first co-admitted workflow to scan an
      INPUT pays the modeled read; further {!claim_scan}s on the same
      epoch ride free (no [input_mb] charge).
    - a {e subplan} entry holds a materialized prefix, keyed by subtree
      hash × environment fingerprint (the serving layer builds the key
      with [Musketeer.Subplan.key]), plus the epochs of every INPUT the
      prefix transitively read. Co-admitted {!claim_subplan}s attach to
      it instead of recomputing. Byte-identity never depends on it:
      tables are immutable and republished into each attacher's own
      HDFS snapshot scope.

    Counters in {!Obs.Metrics.default}: [scan.cross_workflow] (free
    rides from another workflow's payment), [scan.intra_flight] (free
    rides within the paying flight itself — e.g. two jobs of one
    submission scanning the same INPUT, or a plan-cache hit replaying
    scans; these never touch the cross counters),
    [scan.cross_invalidated] (stale scan entries dropped on probe),
    the [scan.cross_mb_saved] gauge; [subplan.cross_workflow]
    (attaches), [subplan.paid] (materializations),
    [subplan.invalidated] (subplan entries dropped by epoch bumps or
    stale probes) and the [subplan.attached_mb] gauge. Main-domain
    only, like the pool. *)

type t

val create : unit -> t

(** {2 Epoch registry} *)

val epoch : t -> string -> int

(** Bump a relation's epoch and drop every entry that read it. *)
val note_write : t -> string -> unit

(** Raise a relation's epoch to at least [e] (restart replay from a
    ledger; never lowers), dropping every entry that read it. *)
val set_epoch : t -> string -> int -> unit

(** {2 Co-admission window} *)

val begin_flight : t -> int

(** Close the flight and drop every entry it paid for. *)
val end_flight : t -> int -> unit

val with_flight : t -> int -> (unit -> 'a) -> 'a

(** Flights begun but not yet ended — the leaked-flight gate asserts
    this returns to 0 after a drive. *)
val open_flights : t -> int

(** {2 Scans} *)

(** [claim_scan t ~relation ~mb] is [true] when the scan rides free,
    [false] when this claim pays (recording the current flight as
    payer). *)
val claim_scan : t -> relation:string -> mb:float -> bool

(** Paid HDFS fetches of a relation since {!create} — the bench asserts
    this stays 1 for co-admitted same-input workflows. *)
val paid_reads : t -> string -> int

(** All relations with paid fetches, sorted by name. *)
val paid_all : t -> (string * int) list

val saved_mb : t -> float

(** {2 Subplans} *)

(** [claim_subplan t ~key] — [Some (table, modeled_mb)] when a
    co-admitted workflow published this subplan and every input it read
    is still at its publication epoch; [None] otherwise (a stale entry
    is dropped on probe). *)
val claim_subplan : t -> key:string -> (Relation.Table.t * float) option

(** [publish t ~key ~inputs ~mb table] — record a materialized subplan
    paid by the current flight. [inputs] are the INPUT relations the
    prefix transitively read; returns them with the epochs captured. *)
val publish :
  t -> key:string -> inputs:string list -> mb:float ->
  Relation.Table.t -> (string * int) list

(** Materializations of one key since {!create} — the bench pins this
    at one per input epoch. *)
val paid_count : t -> key:string -> int

val attached_mb : t -> float

(** {2 Dynamic scope}

    Installing a table lets [Exec_helper.eval_graph] and the engines
    claim scans and note writes without threading a parameter through
    every engine signature. *)

val with_scope : t -> (unit -> 'a) -> 'a

val active : unit -> t option
