(* See substrate.mli. *)

module type NODE = sig
  type t

  val name : t -> string
end

module Pairs (N : NODE) = struct
  (* fold over unordered pairs of distinct nodes *)
  let fold_pairs ~f init nodes =
    let rec go acc = function
      | [] -> acc
      | x :: rest ->
        let acc =
          List.fold_left (fun acc y -> f acc (N.name x) (N.name y)) acc rest
        in
        go acc rest
    in
    go init nodes

  let pair_weight_sum ~weight nodes =
    fold_pairs ~f:(fun acc a b -> acc +. weight a b) 0.0 nodes

  let cross_weight_sum ~weight b1 b2 =
    List.fold_left
      (fun acc x ->
        List.fold_left (fun acc y -> acc +. weight (N.name x) (N.name y)) acc b2)
      0.0 b1
end

module type PROBLEM = sig
  module Node : NODE

  type t

  val nodes : t -> Node.t list
  val weight : t -> string -> string -> float
  val active : t -> Node.t list
  val extend : t -> int -> Node.t -> int
  val capacity : t -> int
  val max_abs_weight : t -> float
end
