(** Metaheuristic layout search over the {!Objective} — the {e field}
    instantiation of the substrate-independent {!Engine} (see
    {!Substrate.PROBLEM}); basic-block layout ([Slo_codelayout]) is the
    second instantiation of the same core.

    The paper's greedy clusterer (§4.4) is a one-shot constructive
    heuristic: it never revisits a placement. The optimizers here treat
    the layout as an explicit optimization problem — Codestitcher-style —
    searching the space of line-respecting partitions:

    - {b greedy}: score the seed partition as-is (the baseline; callers
      seed with {!Slo_core.Cluster.run}'s clusters, so this is exactly the
      paper's automatic layout);
    - {b swap} (steepest-descent): repeatedly apply the best-improving
      single-field move or cross-block pairwise swap until a local
      optimum;
    - {b anneal}: simulated annealing with a geometric temperature
      schedule and Metropolis acceptance, randomized through the supplied
      deterministic PRNG.

    Only {!Objective.active_fields} ever move: relocating an edge-less
    field cannot change the objective, so cold fields stay where the seed
    partition packed them and the struct footprint is preserved.

    {b Determinism contract.} [run] is a pure function of
    [(objective, init, kind, prng state, steps)]. {!run_selector} derives
    one independent PRNG per task {e index} via
    {!Slo_util.Prng.derive} — the same discipline as
    {!Slo_exec.Pool.map_seeded} — so a portfolio returns bit-identical
    results for every pool size (serial included). Each task's returned
    score is recomputed exactly from its best partition, never carried
    incrementally, so [result.score >= score_blocks init] holds exactly
    for every optimizer.

    {b Observability.} Each task bumps [search.tasks] and [search.moves]
    and records its duration into [search.task_s]; {!run_selector} times
    itself into [search.portfolio_s]. Write-only, as everywhere else. *)

module Problem :
  Substrate.PROBLEM
    with type Node.t = Slo_layout.Field.t
     and type t = Objective.t
(** The field substrate the engine is instantiated at: {!Objective}'s
    fields, weights and active set, with [Layout.packed_extend] as
    [extend] and the line size as [capacity]. *)

type kind = Engine.kind = Greedy | Swap | Anneal

val kind_name : kind -> string

type selector = Engine.selector = One of kind | Portfolio

val selector_names : string list
(** [["greedy"; "swap"; "anneal"; "portfolio"]] — the valid CLI
    spellings. *)

val selector_of_string : string -> selector
(** Case-insensitive; also accepts "swap_descent"/"swap-descent" and
    "annealing".
    @raise Invalid_argument naming the bad input and listing
    {!selector_names} for anything else. *)

val selector_name : selector -> string

type result = {
  kind : kind;
  label : string;
      (** display label: "greedy", "swap", "swap\@decl", "anneal#i" *)
  stream : int;  (** PRNG stream / task index within the portfolio *)
  score : float;  (** exact {!Objective.score_blocks} of [blocks] *)
  blocks : Slo_layout.Field.t list list;
  layout : Slo_layout.Layout.t;  (** {!Objective.layout_of_blocks} *)
  moves : int;  (** applied (swap) or accepted (anneal) moves; 0 greedy *)
}

val run :
  ?prng:Slo_util.Prng.t ->
  ?steps:int ->
  Objective.t ->
  init:Slo_layout.Field.t list list ->
  kind ->
  result
(** Run one optimizer from the seed partition [init]. [init] must
    partition the objective's field set; multi-field blocks must satisfy
    {!Objective.block_fits}. [prng] (default a fixed seed-0 generator) is
    only drawn from by [Anneal]; [steps] (default scales with the active
    field count) bounds the annealing schedule length. The result never
    scores below [init] — descents start there and annealing keeps the
    best-seen state.
    @raise Invalid_argument if [init] is not a partition of the fields or
    violates the block-fit rule, or if [steps <= 0]. *)

type portfolio = {
  best : result;  (** highest score; ties go to the lowest stream index *)
  greedy : result;  (** the baseline candidate (always stream 0) *)
  scoreboard : result list;
      (** every candidate, score descending, ties by stream *)
}

val decl_blocks : Objective.t -> Slo_layout.Field.t list list
(** The declaration-order layout's cache-line grouping as a seed
    partition (groups that violate the block-fit rule — a straddling
    trailing field — are split at the line boundary). The portfolio
    descends from this seed too, so its best candidate never scores below
    the declaration order either. *)

val run_selector :
  ?pool:Slo_exec.Pool.t ->
  ?seed:int ->
  ?restarts:int ->
  ?steps:int ->
  Objective.t ->
  init:Slo_layout.Field.t list list ->
  selector ->
  portfolio
(** Fan the selected candidates out as independent tasks:

    - [One Greedy]: just the baseline;
    - [One Swap]: baseline + one steepest descent from it;
    - [One Anneal]: baseline + [restarts] annealing runs (default 4),
      each on its own {!Slo_util.Prng.derive} stream;
    - [Portfolio]: baseline + descent from greedy + descent from
      {!decl_blocks} + [restarts] annealing runs.

    With [pool] the tasks run via {!Slo_exec.Pool.map_seeded}; the
    portfolio (scores, blocks, layouts, move counts) is bit-identical for
    every pool size. [seed] (default 0) is the master seed of the
    per-task streams.
    @raise Invalid_argument if [restarts < 1] (or [run]'s conditions). *)
