(** The substrate-independent optimizer core.

    {!Make} builds the full metaheuristic search — greedy baseline,
    steepest-descent swap, simulated annealing, and the parallel portfolio
    fan-out — from any {!Substrate.PROBLEM}. {!Optimizer} is its field
    instantiation (kept as the stable public face of struct-layout
    search); [Slo_codelayout] instantiates it over basic blocks.

    The algorithms, enumeration orders, PRNG draw sequence, float
    summation orders, capacity short-circuits, and observability counters
    are exactly those documented in {!Optimizer} — that module's
    behavioral contract {e is} this engine's contract, and the field path
    through the functor is byte-identical to the historical direct
    implementation (pinned by a QCheck law in [test/test_search.ml]).

    Error messages keep the historical ["Search.Optimizer.run"] prefix:
    the engine is the optimizer core, whatever the substrate.

    {b Dense state.} The search runs on integer node ids: the problem's
    nodes are indexed once per [run] (once per portfolio, shared
    read-only by its tasks), weights between active nodes sit in a dense
    matrix of [|active|]² floats (an inactive node weighs 0 and is
    skipped), each block is an
    order-preserving id buffer with its capacity size cached, and
    capacity checks go through [P.extend]/[P.capacity]. The candidate
    sums visit block members in the same order as the list-based engine
    did, so scores, moves and blocks are bit-identical to it (pinned by
    a differential QCheck law against that engine, kept in
    [test/engine_ref.ml], and by golden portfolios in
    [test/test_search.ml]). Results are still scored through
    {!Substrate.Pairs}.

    {b Determinism contract.} [run] is a pure function of
    [(problem, init, kind, prng state, steps)]. {!Make.run_selector}
    derives one independent PRNG per task {e index} via
    {!Slo_util.Prng.derive} — the same discipline as
    {!Slo_exec.Pool.map_seeded} — so a portfolio returns bit-identical
    results for every pool size (serial included).

    {b Observability.} Each task bumps [search.tasks] and [search.moves]
    and records its duration into [search.task_s]; [run_selector] times
    itself into [search.portfolio_s]. Write-only, as everywhere else. *)

type kind = Greedy | Swap | Anneal

val kind_name : kind -> string

type selector = One of kind | Portfolio

val selector_name : selector -> string

module Make (P : Substrate.PROBLEM) : sig
  val block_weight : P.t -> P.Node.t list -> float
  (** {!Substrate.Pairs.pair_weight_sum} under the problem's weights. *)

  val score_blocks : P.t -> P.Node.t list list -> float
  (** Objective value of a partition: sum of [block_weight] over blocks
      (cross-block pairs contribute nothing). *)

  type result = {
    kind : kind;
    label : string;  (** "greedy", "swap", "swap\@decl", "anneal#i" *)
    stream : int;  (** PRNG stream / task index within the portfolio *)
    score : float;  (** exact [score_blocks] of [blocks], recomputed *)
    blocks : P.Node.t list list;
    moves : int;  (** applied (swap) / accepted (anneal) moves; 0 greedy *)
  }

  val default_steps : P.t -> int
  (** [max 500 (120 · |active|)] — the annealing schedule default. *)

  val run :
    ?prng:Slo_util.Prng.t ->
    ?steps:int ->
    P.t ->
    init:P.Node.t list list ->
    kind ->
    result
  (** Run one optimizer from the seed partition [init]. [init] must
      partition the problem's node set; a multi-node block's size (the
      fold of [P.extend] from 0) must be at most [P.capacity]. The result
      never scores below [init].
      @raise Invalid_argument if [init] is not a partition or violates
      the capacity rule, or if [steps <= 0]. *)

  type portfolio = {
    best : result;  (** highest score; ties go to the lowest stream *)
    greedy : result;  (** the baseline candidate (always stream 0) *)
    scoreboard : result list;  (** score descending, ties by stream *)
  }

  val run_selector :
    ?pool:Slo_exec.Pool.t ->
    ?seed:int ->
    ?restarts:int ->
    ?steps:int ->
    ?decl:P.Node.t list list ->
    P.t ->
    init:P.Node.t list list ->
    selector ->
    portfolio
  (** Fan the selected candidates out as independent tasks: baseline
      greedy, plus per-selector extras, plus [restarts] annealing runs
      (default 4) for [One Anneal]/[Portfolio]. With [decl] (a
      declaration-order seed partition), [Portfolio] adds a "swap\@decl"
      descent from it, so the best candidate never scores below the
      declaration order either. With [pool] tasks run via
      {!Slo_exec.Pool.map_seeded}; results are bit-identical for every
      pool size. [seed] (default 0) is the master seed.
      @raise Invalid_argument if [restarts < 1] (or [run]'s
      conditions). *)
end
