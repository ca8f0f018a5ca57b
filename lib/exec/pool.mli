(** Fixed-size domain pool for the embarrassingly parallel stages of the
    pipeline (per-struct FLG construction, independent simulator runs,
    figure regeneration).

    The design follows the work-pool shape of the cache-oblivious multicore
    scheduling literature: a fixed set of worker domains pulls indexed
    tasks from a shared queue, and every task writes its result into its
    own slot. Per-core working sets stay independent — tasks share no
    mutable state — so adding domains changes wall-clock time only.

    {b Determinism contract.} For a pure task function [f], [map pool f xs]
    returns exactly [List.map f xs] — same elements, same order — for every
    pool size and every scheduling of workers. Randomized tasks get their
    stream through {!map_seeded}, which derives one independent PRNG per
    task {e index} (never from a shared generator), so results are
    bit-identical regardless of worker count or execution order. Every
    parallel entry point in the repo routes through this module, which is
    what lets the differential tests in [test/test_exec.ml] assert
    byte-identical reports, layouts and cycle counts against the serial
    paths.

    Exceptions: if one or more tasks raise, all remaining tasks still run
    and the exception of the {e lowest-index} failing task is re-raised —
    again independent of scheduling. (The serial path raises the same
    exception; it just stops at the first one.) A failing batch does not
    damage the pool: task exceptions are caught at the task boundary and
    stored in the batch's result slots, never propagated into a worker's
    loop, so no domain exits early and no queue entry is leaked — the
    next [map] on the same pool behaves exactly as if the failing batch
    had never happened. Long-lived pool owners (the serve daemon's
    simulated clients) rely on this; test_exec's failing-batch-then-
    succeeding-batch regression pins it.

    Pools are not reentrant: do not call [map] on a pool from inside one of
    its own tasks.

    {b Observability.} Every batch records into {!Slo_obs.Obs.default}:
    histograms [pool.task.queue_s] (enqueue-to-start latency, parallel
    batches only), [pool.task.run_s] (task duration) and
    [pool.batch.utilization_pct]; counters [pool.tasks] / [pool.batches];
    gauges [pool.domains] and [pool.utilization] (busy time over
    wall-clock × lanes of the last batch). Metrics are write-only on this
    path — recording them cannot perturb results, so the determinism
    contract above holds with metrics enabled. *)

type t

val max_domains : int
(** The largest pool {!create} accepts: 128, OCaml 5's limit on live
    domains (the calling domain included). *)

val jobs_of_string : string -> (int, string) result
(** A worker count as written on a command line or in [SLO_JOBS]: an
    integer in [\[1, max_domains\]] (surrounding blanks allowed), or an
    error message naming that range. *)

val default_jobs : unit -> int
(** Worker count used when the caller does not choose: the [SLO_JOBS]
    environment variable if set to an integer in [\[1, max_domains\]],
    otherwise (unset, garbage or out of range)
    [Domain.recommended_domain_count ()]. *)

val create : domains:int -> t
(** [create ~domains] starts a pool of [domains] total workers. The
    calling thread participates in draining the queue during {!map}, so
    [domains - 1] additional domains are spawned; [domains = 1] spawns
    nothing and makes every operation run serially in the caller.
    @raise Invalid_argument if [domains < 1] or [domains > max_domains],
    before any domain is spawned. *)

val size : t -> int
(** Total parallelism (the [domains] passed to {!create}). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map; see the determinism contract above. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** Parallel map, then a {e serial} left fold over the results in index
    order — the fold order is fixed so non-commutative (e.g. float)
    reductions stay deterministic. *)

val map_seeded :
  t -> seed:int -> (Slo_util.Prng.t -> 'a -> 'b) -> 'a list -> 'b list
(** [map_seeded t ~seed f xs] runs [f prng_i x_i] where [prng_i] is
    {!Slo_util.Prng.derive}[ ~seed ~stream:i] — an independent stream per
    task index, identical for every pool size. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; the pool is unusable after.
    Calling {!map} on a shut-down pool raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool ({!default_jobs} workers
    unless [domains] is given) and shuts it down afterwards, also on
    exceptions. *)
