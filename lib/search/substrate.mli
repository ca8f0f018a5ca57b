(** The layout substrate signature: what a domain must provide for the
    generic optimizer core ({!Engine}) to search over it.

    The paper's machinery is substrate-agnostic — nodes, pairwise affinity
    weights (already [k1·gain − k2·penalty] when the graph is an FLG), and
    capacity-bounded blocks. Struct fields packed into cache lines
    ({!Objective}/{!Optimizer}) are one instantiation; basic blocks packed
    into I-cache lines (Codestitcher-style, [Slo_codelayout]) are another.
    A substrate supplies:

    - {b nodes} with stable unique names (weights are keyed by name);
    - a {b weight} provider: the affinity/penalty balance for a node pair
      (0 for absent edges). A node with no incident edge is inactive and
      weighs 0 against every other node; the engine relies on this and
      never asks for an inactive node's weights;
    - a {b capacity} provider: [extend] grows a block's size by one node
      and [capacity] bounds it. The engine derives the whole-block rule
      (a singleton always fits, a multi-node block must fit [capacity])
      and the incremental one (can a node join this non-empty block?)
      from these two, and caches each block's size.

    {!Pairs} is the shared scoring primitive: the fold order over
    unordered pairs is part of the contract — every consumer (the greedy
    clusterer, the brute-force test oracles, the optimizers) must sum the
    same pairs in the same order so that float scores are byte-identical
    across implementations. *)

module type NODE = sig
  type t

  val name : t -> string
  (** Stable unique key; weights and positions are keyed by it. *)
end

(** Pairwise scoring primitives over a node type. The fold visits
    unordered pairs of distinct nodes in list order — pair [(x, y)] with
    [x] before [y] — and sums left-to-right, so float results are
    reproducible to the bit across substrates. *)
module Pairs (N : NODE) : sig
  val fold_pairs : f:('a -> string -> string -> 'a) -> 'a -> N.t list -> 'a
  (** Fold [f] over unordered pairs of distinct nodes, by name. *)

  val pair_weight_sum : weight:(string -> string -> float) -> N.t list -> float
  (** Sum of [weight a b] over unordered pairs of distinct nodes. *)

  val cross_weight_sum :
    weight:(string -> string -> float) -> N.t list -> N.t list -> float
  (** Sum of [weight a b] for [a] in the first list, [b] in the second. *)
end

(** A complete search problem: nodes, weights, and capacity rules.
    {!Engine.Make} builds the full greedy/swap/anneal portfolio from
    this. *)
module type PROBLEM = sig
  module Node : NODE

  type t
  (** The problem instance (graph + geometry + capacity). *)

  val nodes : t -> Node.t list
  (** All nodes, in declaration order. Partitions are validated against
      this set. *)

  val weight : t -> string -> string -> float
  (** Affinity weight of a node pair; 0 for absent edges. *)

  val active : t -> Node.t list
  (** Nodes with at least one incident edge — the only ones worth moving;
      the engine leaves every other node where the seed partition put
      it. [weight] is 0 between an inactive node and any other node. *)

  val extend : t -> int -> Node.t -> int
  (** [extend p size n]: the capacity size of a block of size [size]
      once [n] is appended to it. A block's size is
      [List.fold_left (extend p) 0 block], so [extend] must be a pure
      function of its arguments; the block order it folds is the order
      the engine keeps. *)

  val capacity : t -> int
  (** Capacity of one block (one cache line). The engine derives both
      capacity rules from [extend] and [capacity]: a singleton always
      fits (an oversized node still gets its own block), a multi-node
      block fits iff its size is at most [capacity]. *)

  val max_abs_weight : t -> float
  (** Largest absolute edge weight — the annealer's initial
      temperature scale. *)
end
