(** Plan cache for the serving layer (ROADMAP "always-on service").

    Planning a submission — optimizer rewrites, size estimation, the
    exhaustive/DP partitioner — is pure given the graph and a small
    planning environment. Repeat traffic therefore caches the resulting
    [(plan, optimized graph)] pair in an {!Lru} keyed on
    {!Ir.Dag.canonical_hash} of the *submitted* (pre-optimization)
    graph and stamped with a {!fingerprint} of the environment:
    candidate engines after circuit-breaker filtering, installed
    calibration factors, the fusion gate, planning flags, workflow name,
    and the modeled sizes of the INPUT relations. A probe whose
    fingerprint disagrees with the stored stamp drops the entry
    ([Lru.Invalidated]) and the caller re-plans.

    Counters land in {!Obs.Metrics.default} as
    [plan_cache.{hits,misses,invalidations,evictions}]; callers put the
    outcome on the ["plan"] span as the [plan.cache] attribute. *)

val fingerprint :
  backends:Engines.Backend.t list ->
  merging:bool ->
  optimize:bool ->
  workflow:string ->
  hdfs:Engines.Hdfs.t ->
  Ir.Dag.t ->
  string
