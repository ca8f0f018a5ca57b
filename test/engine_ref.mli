(** The list-based layout search engine, kept as the differential oracle
    for {!Slo_search.Engine.Make}: the same greedy/swap/anneal algorithms
    over node lists and name-keyed positions, with the capacity rules
    derived from [extend]/[capacity]. Same signature as the engine's
    functor, minus the pool. *)

module Make (P : Slo_search.Substrate.PROBLEM) : sig
  type result = {
    kind : Slo_search.Engine.kind;
    label : string;
    stream : int;
    score : float;
    blocks : P.Node.t list list;
    moves : int;
  }

  val run :
    ?prng:Slo_util.Prng.t ->
    ?steps:int ->
    P.t ->
    init:P.Node.t list list ->
    Slo_search.Engine.kind ->
    result

  type portfolio = { best : result; greedy : result; scoreboard : result list }

  val run_selector :
    ?seed:int ->
    ?restarts:int ->
    ?steps:int ->
    ?decl:P.Node.t list list ->
    P.t ->
    init:P.Node.t list list ->
    Slo_search.Engine.selector ->
    portfolio
end
