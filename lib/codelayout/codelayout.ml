module Cfg = Slo_ir.Cfg
module Counts = Slo_profile.Counts
module Sgraph = Slo_graph.Sgraph
module Engine = Slo_search.Engine
module Substrate = Slo_search.Substrate
module Machine = Slo_sim.Machine

module Block = struct
  type t = { proc : string; id : int; size : int; bname : string }

  let make ~proc ~id ~size =
    if size <= 0 then invalid_arg "Codelayout.Block.make: size <= 0";
    if id < 0 then invalid_arg "Codelayout.Block.make: id < 0";
    { proc; id; size; bname = Printf.sprintf "%s#%d" proc id }

  let name b = b.bname
  let proc b = b.proc
  let id b = b.id
  let size b = b.size
end

type t = {
  cblocks : Block.t list;  (* program order: the declaration baseline *)
  graph : Sgraph.t;  (* affinity over block names *)
  capacity : int;  (* bin capacity = I-cache line size, bytes *)
}

let default_capacity = 64

let make ~capacity ~blocks ~graph =
  if capacity <= 0 then invalid_arg "Codelayout.make: capacity <= 0";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let n = Block.name b in
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Codelayout.make: duplicate block %s" n);
      Hashtbl.replace seen n ())
    blocks;
  List.iter
    (fun (u, v, _) ->
      if not (Hashtbl.mem seen u && Hashtbl.mem seen v) then
        invalid_arg
          (Printf.sprintf "Codelayout.make: graph edge (%s, %s) names no block"
             u v))
    (Sgraph.edges graph);
  { cblocks = blocks; graph; capacity }

let capacity t = t.capacity
let blocks t = t.cblocks
let graph t = t.graph

(* The affinity between two basic blocks is how often control passes
   between them — the CFG edge execution counts of the collect phase. Like
   the field graph's reference-count weights, heavier edges mean the pair
   belongs on one I-cache line. *)
let graph_of_counts counts ~known =
  Counts.fold_edges counts ~init:Sgraph.empty
    ~f:(fun g ~proc ~src ~dst n ->
      if n <= 0 || src = dst then g
      else
        let u = Printf.sprintf "%s#%d" proc src
        and v = Printf.sprintf "%s#%d" proc dst in
        if Hashtbl.mem known u && Hashtbl.mem known v then
          Sgraph.add_edge g u v (float_of_int n)
        else g)

let of_program ?(capacity = default_capacity) program counts =
  let blocks =
    List.concat_map
      (fun (name, (c : Cfg.t)) ->
        Array.to_list
          (Array.mapi
             (fun id blk ->
               Block.make ~proc:name ~id ~size:(Machine.code_block_size blk))
             c.Cfg.blocks))
      (Cfg.of_program program)
  in
  let known = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace known (Block.name b) ()) blocks;
  make ~capacity ~blocks ~graph:(graph_of_counts counts ~known)

(* --------------------------------------------------------------------- *)
(* The block substrate. *)

module Problem = struct
  module Node = struct
    type t = Block.t

    let name = Block.name
  end

  type nonrec t = t

  let nodes p = p.cblocks

  let weight p a b = Sgraph.weight0 p.graph a b

  let active p =
    List.filter (fun b -> Sgraph.degree p.graph (Block.name b) > 0) p.cblocks

  (* A bin's size is the sum of its blocks' code bytes. The engine keeps
     the field objective's singleton exemption: a lone block larger than a
     line is legal (it simply spans lines); only merged bins must fit. *)
  let extend _ size b = size + Block.size b
  let capacity p = p.capacity

  let max_abs_weight p =
    List.fold_left
      (fun acc (_, _, w) -> Float.max acc (Float.abs w))
      0.0 (Sgraph.edges p.graph)
end

module E = Engine.Make (Problem)

let score = E.score_blocks

(* Declaration-order bins: blocks in program order, packed greedily into
   capacity-bounded runs that never span a procedure boundary — the
   "as compiled" partition, and the search's seed. *)
let decl_bins p =
  let close cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go cur cur_size acc = function
    | [] -> List.rev (close cur acc)
    | b :: rest -> (
      match cur with
      | [] -> go [ b ] (Block.size b) acc rest
      | prev :: _ ->
        let size = cur_size + Block.size b in
        if String.equal (Block.proc prev) (Block.proc b) && size <= p.capacity
        then go (b :: cur) size acc rest
        else go [ b ] (Block.size b) (close cur acc) rest)
  in
  go [] 0 [] p.cblocks

let order_of_bins bins =
  List.concat_map (List.map (fun b -> (Block.proc b, Block.id b))) bins

let decl_order p = List.map (fun b -> (Block.proc b, Block.id b)) p.cblocks

type result = {
  kind : Engine.kind;
  label : string;
  stream : int;
  score : float;
  bins : Block.t list list;
  order : (string * int) list;
  moves : int;
}

(* The engine searches partitions; the block substrate's deliverable is
   the flattened block order [set_code_layout] consumes. *)
let of_engine (r : E.result) =
  {
    kind = r.E.kind;
    label = r.E.label;
    stream = r.E.stream;
    score = r.E.score;
    bins = r.E.blocks;
    order = order_of_bins r.E.blocks;
    moves = r.E.moves;
  }

let run ?prng ?steps p kind = of_engine (E.run ?prng ?steps p ~init:(decl_bins p) kind)

type portfolio = { best : result; greedy : result; scoreboard : result list }

let search ?pool ?seed ?restarts ?steps p selector =
  let pf = E.run_selector ?pool ?seed ?restarts ?steps p ~init:(decl_bins p) selector in
  {
    best = of_engine pf.E.best;
    greedy = of_engine pf.E.greedy;
    scoreboard = List.map of_engine pf.E.scoreboard;
  }
