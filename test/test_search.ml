(* Tests for lib/search: the shared layout objective, the metaheuristic
   optimizers, the parallel portfolio, the dense engine against its
   list-based oracle, and golden portfolios. Small random FLGs come from
   Test_exec's generator so the brute-force partition oracle there and the
   optimizers here are exercised against the same instances. *)

module Field = Slo_layout.Field
module Layout = Slo_layout.Layout
module Sgraph = Slo_graph.Sgraph
module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs
module Flg = Slo_core.Flg
module Cluster = Slo_core.Cluster
module Pipeline = Slo_core.Pipeline
module Objective = Slo_search.Objective
module Optimizer = Slo_search.Optimizer
module Trap = Slo_workload.Trap
module Collect = Slo_workload.Collect
module Kernel = Slo_workload.Kernel
module Ctrap = Slo_workload.Ctrap
module Engine = Slo_search.Engine
module Codelayout = Slo_codelayout.Codelayout

let checkf = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let fld name = Field.make ~name ~prim:Slo_ir.Ast.Long ~count:1 ()
let line_size = 32 (* 4 longs per line, matching the oracle's *)

let objective_of flg = Test_exec.objective_of ~line_size flg

let greedy_init flg =
  List.map
    (fun (c : Cluster.cluster) -> c.Cluster.members)
    (Cluster.run flg ~line_size)

(* A small hand FLG where the best partition is known by inspection:
   chain a-b-c with w(a,b) = 10, w(b,c) = 11 and two-long lines, so the
   optimum is {b,c} | {a} with score 11. *)
let chain_flg () =
  let fields = [ fld "a"; fld "b"; fld "c" ] in
  Test_exec.flg_of ~fields
    ~edges:[ ("a", "b", 10.0); ("b", "c", 11.0) ]
    ~hotness:[ ("a", 3); ("b", 2); ("c", 1) ]

let chain_objective () =
  Objective.make ~struct_name:"S" ~fields:(chain_flg ()).Flg.fields
    ~graph:(chain_flg ()).Flg.graph ~line_size:16

(* ------------------------------------------------------------------ *)
(* Objective *)

let test_make_validation () =
  let fields = [ fld "a" ] in
  let graph = Sgraph.add_node Sgraph.empty "a" in
  Alcotest.check_raises "line_size <= 0"
    (Invalid_argument "Search.Objective.make: line_size <= 0") (fun () ->
      ignore (Objective.make ~struct_name:"S" ~fields ~graph ~line_size:0));
  Alcotest.check_raises "empty fields"
    (Invalid_argument "Search.Objective.make: no fields") (fun () ->
      ignore (Objective.make ~struct_name:"S" ~fields:[] ~graph ~line_size:64));
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Search.Objective.make: duplicate field \"a\"")
    (fun () ->
      ignore
        (Objective.make ~struct_name:"S" ~fields:[ fld "a"; fld "a" ] ~graph
           ~line_size:64))

let test_score_hand_computed () =
  let obj = chain_objective () in
  checkf "a|b|c" 0.0 (Objective.score_blocks obj [ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ]);
  checkf "{a,b}|{c}" 10.0
    (Objective.score_blocks obj [ [ fld "a"; fld "b" ]; [ fld "c" ] ]);
  checkf "{b,c}|{a}" 11.0
    (Objective.score_blocks obj [ [ fld "b"; fld "c" ]; [ fld "a" ] ]);
  checkf "weight is symmetric" (Objective.weight obj "a" "b")
    (Objective.weight obj "b" "a")

(* The partition/layout agreement law: scoring a partition directly equals
   scoring the layout produced by giving each block its own line. *)
let prop_score_blocks_eq_score_layout =
  QCheck2.Test.make ~name:"score (layout_of_blocks bs) = score_blocks bs"
    ~count:200 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      Test_exec.partitions flg.Flg.fields
      |> List.filter (List.for_all (Objective.block_fits obj))
      |> List.for_all (fun blocks ->
             let direct = Objective.score_blocks obj blocks in
             let via_layout =
               Objective.score obj (Objective.layout_of_blocks obj blocks)
             in
             Float.abs (direct -. via_layout) < 1e-9))

let prop_gain_loss_decomposition =
  QCheck2.Test.make ~name:"score = gain - loss, gain and loss nonnegative"
    ~count:200 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      let layout =
        Objective.layout_of_blocks obj (greedy_init flg)
      in
      let gain, loss = Objective.gain_loss obj layout in
      gain >= 0.0 && loss >= 0.0
      && Float.abs (gain -. loss -. Objective.score obj layout) < 1e-9)

let test_active_fields () =
  let flg = chain_flg () in
  let fields = flg.Flg.fields @ [ fld "isolated" ] in
  let graph = Sgraph.add_node flg.Flg.graph "isolated" in
  let obj = Objective.make ~struct_name:"S" ~fields ~graph ~line_size:16 in
  Alcotest.(check (list string))
    "only fields with incident edges are active"
    [ "a"; "b"; "c" ]
    (List.map (fun (f : Field.t) -> f.Field.name) (Objective.active_fields obj))

(* ------------------------------------------------------------------ *)
(* Optimizer *)

let test_selector_parsing () =
  let open Optimizer in
  Alcotest.(check bool) "greedy" true (selector_of_string "greedy" = One Greedy);
  Alcotest.(check bool) "swap" true (selector_of_string "swap" = One Swap);
  Alcotest.(check bool) "swap_descent alias" true
    (selector_of_string "swap_descent" = One Swap);
  Alcotest.(check bool) "swap-descent alias" true
    (selector_of_string "swap-descent" = One Swap);
  Alcotest.(check bool) "anneal" true (selector_of_string "anneal" = One Anneal);
  Alcotest.(check bool) "annealing alias" true
    (selector_of_string "annealing" = One Anneal);
  Alcotest.(check bool) "portfolio" true
    (selector_of_string "Portfolio" = Portfolio);
  Alcotest.(check bool) "case-insensitive" true
    (selector_of_string " GREEDY " = One Greedy);
  Alcotest.check_raises "unknown optimizer lists the valid names"
    (Invalid_argument
       "Search.Optimizer.selector_of_string: unknown optimizer \"bogus\" \
        (valid: greedy|swap|anneal|portfolio)") (fun () ->
      ignore (selector_of_string "bogus"))

let test_run_validation () =
  let obj = chain_objective () in
  Alcotest.check_raises "init not a partition"
    (Invalid_argument "Search.Optimizer.run: init is not a partition of the fields")
    (fun () ->
      ignore (Optimizer.run obj ~init:[ [ fld "a" ] ] Optimizer.Greedy));
  Alcotest.check_raises "oversized block"
    (Invalid_argument "Search.Optimizer.run: init block exceeds the cache line")
    (fun () ->
      ignore
        (Optimizer.run obj
           ~init:[ [ fld "a"; fld "b"; fld "c" ] ]
           Optimizer.Greedy));
  Alcotest.check_raises "steps <= 0"
    (Invalid_argument "Search.Optimizer.run: steps <= 0") (fun () ->
      ignore
        (Optimizer.run ~steps:0 obj
           ~init:[ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ]
           Optimizer.Anneal))

let test_swap_fixes_chain_trap () =
  (* Greedy seeds at the hottest field [a], takes its only positive edge
     (a,b), fills the two-long line and strands c: score 10. One exchange
     (a <-> c) reaches the optimum {b,c} | {a}: score 11. *)
  let flg = chain_flg () in
  let obj =
    Objective.make ~struct_name:"S" ~fields:flg.Flg.fields ~graph:flg.Flg.graph
      ~line_size:16
  in
  let init =
    List.map
      (fun (c : Cluster.cluster) -> c.Cluster.members)
      (Cluster.run flg ~line_size:16)
  in
  checkf "greedy is trapped" 10.0 (Objective.score_blocks obj init);
  let r = Optimizer.run obj ~init Optimizer.Swap in
  checkf "swap descent reaches the optimum" 11.0 r.Optimizer.score;
  check_int "in one move" 1 r.Optimizer.moves;
  Alcotest.(check bool) "b and c share a line" true
    (Layout.same_line r.Optimizer.layout ~line_size:16 "b" "c")

(* Every optimizer returns a valid line-respecting partition of the field
   set and never scores below the greedy seed. *)
let prop_optimizers_valid_and_never_below_greedy =
  QCheck2.Test.make
    ~name:"optimizers: valid partition, score >= greedy (1, 2, N domains)"
    ~count:100 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      let init = greedy_init flg in
      let greedy_score = Objective.score_blocks obj init in
      let names blocks =
        List.sort compare
          (List.concat_map
             (List.map (fun (f : Field.t) -> f.Field.name))
             blocks)
      in
      let all_names = names [ flg.Flg.fields ] in
      List.for_all
        (fun kind ->
          let r = Optimizer.run ~prng:(Prng.create ~seed:3) obj ~init kind in
          names r.Optimizer.blocks = all_names
          && List.for_all (Objective.block_fits obj) r.Optimizer.blocks
          && r.Optimizer.score >= greedy_score
          && Float.abs
               (Objective.score_blocks obj r.Optimizer.blocks
               -. r.Optimizer.score)
             < 1e-9)
        [ Optimizer.Greedy; Optimizer.Swap; Optimizer.Anneal ])

(* The portfolio never beats the brute-force oracle (all its candidates
   are valid partitions) and never scores below greedy or the declaration
   order (it descends from both seeds). *)
let prop_portfolio_vs_oracle =
  QCheck2.Test.make
    ~name:"portfolio: greedy <= best, decl <= best, best <= oracle (≤7 fields)"
    ~count:60 Test_exec.gen_small_flg (fun flg ->
      let obj = objective_of flg in
      let init = greedy_init flg in
      let p =
        Optimizer.run_selector ~restarts:2 obj ~init Optimizer.Portfolio
      in
      let best = p.Optimizer.best.Optimizer.score in
      let oracle =
        Test_exec.partitions flg.Flg.fields
        |> List.filter (List.for_all (Objective.block_fits obj))
        |> List.fold_left
             (fun acc blocks ->
               Float.max acc (Objective.score_blocks obj blocks))
             neg_infinity
      in
      let decl_score =
        Objective.score_blocks obj (Optimizer.decl_blocks obj)
      in
      best >= p.Optimizer.greedy.Optimizer.score
      && best >= decl_score -. 1e-9
      && best <= oracle +. 1e-6)

let test_trap_search_beats_greedy () =
  (* The engineered greedy-trap workload (lib/workload/trap.ml): the
     portfolio must strictly beat greedy and reunite the scan block. *)
  let p =
    Pipeline.search ~restarts:2 ~selector:Optimizer.Portfolio (Trap.flg ())
  in
  Alcotest.(check bool) "strict improvement" true
    (p.Optimizer.best.Optimizer.score
    > p.Optimizer.greedy.Optimizer.score +. 1e-9);
  let best = p.Optimizer.best.Optimizer.layout in
  Alcotest.(check bool) "decoy pair colocated" true
    (Layout.same_line best ~line_size:Trap.line_size "t_x" "t_y");
  Alcotest.(check bool) "scan block reunited with its seed" true
    (Layout.same_line best ~line_size:Trap.line_size "t_s" "t_c14")

(* ------------------------------------------------------------------ *)
(* Portfolio determinism *)

let result_repr (r : Optimizer.result) =
  Format.asprintf "%s/%d %.9f %d %a" r.Optimizer.label r.Optimizer.stream
    r.Optimizer.score r.Optimizer.moves Layout.pp r.Optimizer.layout

let portfolio_repr (p : Optimizer.portfolio) =
  String.concat "\n"
    (result_repr p.Optimizer.best
    :: result_repr p.Optimizer.greedy
    :: List.map result_repr p.Optimizer.scoreboard)

let test_portfolio_pool_identity () =
  let flg = Trap.flg () in
  let run pool =
    portfolio_repr
      (Pipeline.search ?pool ~seed:0 ~restarts:4
         ~selector:Optimizer.Portfolio flg)
  in
  let serial = run None in
  List.iter
    (fun domains ->
      let par = Pool.with_pool ~domains (fun p -> run (Some p)) in
      Alcotest.(check string)
        (Printf.sprintf "portfolio, %d domains" domains)
        serial par)
    (Test_exec.pool_sizes ())

let test_anneal_deterministic () =
  let obj = chain_objective () in
  let init = [ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ] in
  let run () =
    result_repr
      (Optimizer.run ~prng:(Prng.create ~seed:9) obj ~init Optimizer.Anneal)
  in
  Alcotest.(check string) "same prng, same result" (run ()) (run ());
  let other =
    result_repr
      (Optimizer.run
         ~prng:(Prng.derive ~seed:9 ~stream:1)
         obj ~init Optimizer.Anneal)
  in
  ignore other (* different stream may or may not differ; just must run *)

let test_portfolio_shape () =
  let flg = chain_flg () in
  let obj =
    Objective.make ~struct_name:"S" ~fields:flg.Flg.fields ~graph:flg.Flg.graph
      ~line_size:16
  in
  let init =
    List.map
      (fun (c : Cluster.cluster) -> c.Cluster.members)
      (Cluster.run flg ~line_size:16)
  in
  let before = Obs.counter "search.tasks" in
  let p = Optimizer.run_selector ~restarts:3 obj ~init Optimizer.Portfolio in
  (* greedy + swap + swap@decl + 3 anneals *)
  check_int "scoreboard size" 6 (List.length p.Optimizer.scoreboard);
  check_int "search.tasks bumped" (before + 6) (Obs.counter "search.tasks");
  check_int "greedy is stream 0" 0 p.Optimizer.greedy.Optimizer.stream;
  Alcotest.(check string) "greedy label" "greedy" p.Optimizer.greedy.Optimizer.label;
  (* scoreboard is sorted by score descending *)
  let scores = List.map (fun r -> r.Optimizer.score) p.Optimizer.scoreboard in
  Alcotest.(check (list (float 1e-9)))
    "sorted descending"
    (List.sort (fun a b -> compare b a) scores)
    scores;
  checkf "best is the max" (List.hd scores) p.Optimizer.best.Optimizer.score;
  checkf "chain trap solved by the portfolio" 11.0
    p.Optimizer.best.Optimizer.score;
  Alcotest.check_raises "restarts < 1"
    (Invalid_argument "Search.Optimizer.run_selector: restarts < 1")
    (fun () ->
      ignore (Optimizer.run_selector ~restarts:0 obj ~init Optimizer.Portfolio))

let test_selector_task_counts () =
  let obj = chain_objective () in
  let init = [ [ fld "a" ]; [ fld "b" ]; [ fld "c" ] ] in
  let n selector =
    List.length
      (Optimizer.run_selector ~restarts:2 obj ~init selector)
        .Optimizer.scoreboard
  in
  check_int "greedy alone" 1 (n (Optimizer.One Optimizer.Greedy));
  check_int "swap = baseline + descent" 2 (n (Optimizer.One Optimizer.Swap));
  check_int "anneal = baseline + restarts" 3 (n (Optimizer.One Optimizer.Anneal));
  check_int "portfolio" 5 (n Optimizer.Portfolio)

(* ------------------------------------------------------------------ *)
(* Differential law: the dense engine against the list-based one it
   replaced (Engine_ref), on both substrates. Every run must agree on
   block contents and order, the bits of every score, and move counts. *)

module Diff (P : Slo_search.Substrate.PROBLEM) = struct
  module New = Engine.Make (P)
  module Old = Engine_ref.Make (P)

  let names blocks = List.map (List.map P.Node.name) blocks

  let same (a : New.result) (b : Old.result) =
    a.New.kind = b.Old.kind
    && String.equal a.New.label b.Old.label
    && a.New.stream = b.Old.stream
    && Int64.equal
         (Int64.bits_of_float a.New.score)
         (Int64.bits_of_float b.Old.score)
    && a.New.moves = b.Old.moves
    && names a.New.blocks = names b.Old.blocks

  let agree prob ~init ~decl =
    List.for_all
      (fun kind ->
        same
          (New.run ~prng:(Prng.create ~seed:5) prob ~init kind)
          (Old.run ~prng:(Prng.create ~seed:5) prob ~init kind))
      [ Engine.Greedy; Engine.Swap; Engine.Anneal ]
    && List.for_all
         (fun selector ->
           let a = New.run_selector ~seed:3 ~restarts:2 ~decl prob ~init selector
           and b = Old.run_selector ~seed:3 ~restarts:2 ~decl prob ~init selector in
           same a.New.best b.Old.best
           && same a.New.greedy b.Old.greedy
           && List.length a.New.scoreboard = List.length b.Old.scoreboard
           && List.for_all2 same a.New.scoreboard b.Old.scoreboard)
         [ Engine.One Engine.Greedy; Engine.One Engine.Swap;
           Engine.One Engine.Anneal; Engine.Portfolio ]
end

module Diff_fields = Diff (Optimizer.Problem)
module Diff_blocks = Diff (Codelayout.Problem)

(* A random seed partition: nodes grouped by a random label, each group cut
   into consecutive runs that [fits], and an empty block slipped in. *)
let gen_partition ~fits nodes =
  QCheck2.Gen.(
    let n = List.length nodes in
    let* labels = list_size (return n) (int_range 0 (n - 1)) in
    let labelled = List.combine labels nodes in
    let groups =
      List.init n (fun l ->
          List.filter_map (fun (l', x) -> if l' = l then Some x else None) labelled)
    in
    let pack group =
      let close cur acc = if cur = [] then acc else List.rev cur :: acc in
      let cur, acc =
        List.fold_left
          (fun (cur, acc) x ->
            if cur = [] || fits (List.rev (x :: cur)) then (x :: cur, acc)
            else ([ x ], close cur acc))
          ([], []) group
      in
      List.rev (close cur acc)
    in
    let packed = List.concat_map pack groups in
    let* at = int_range 0 (List.length packed) in
    return (List.filteri (fun i _ -> i < at) packed
            @ ([] :: List.filteri (fun i _ -> i >= at) packed)))

(* Random small FLGs with mixed field sizes and alignments, plus up to two
   edge-less (inactive) fields. *)
let gen_field_problem =
  QCheck2.Gen.(
    let* flg = Test_exec.gen_small_flg in
    let prim = oneofl Slo_ir.Ast.[ Char; Short; Int; Long ] in
    let* fields =
      flatten_l
        (List.map
           (fun (f : Field.t) ->
             let* prim = prim and* count = int_range 1 3 in
             return (Field.make ~name:f.Field.name ~prim ~count ()))
           flg.Flg.fields)
    in
    let* extra = int_range 0 2 in
    let cold = List.init extra (fun i -> fld (Printf.sprintf "cold%d" i)) in
    let fields = fields @ cold in
    let graph =
      List.fold_left
        (fun g (f : Field.t) -> Sgraph.add_node g f.Field.name)
        flg.Flg.graph cold
    in
    let* line_size = oneofl [ 16; 32 ] in
    let obj = Objective.make ~struct_name:"S" ~fields ~graph ~line_size in
    let fits = Objective.block_fits obj in
    let* init = gen_partition ~fits fields in
    let* decl = gen_partition ~fits fields in
    return (obj, init, decl))

let gen_block_problem =
  QCheck2.Gen.(
    let* p = Test_codelayout.gen_small_problem in
    let fits = Test_codelayout.bin_fits ~capacity:(Codelayout.capacity p) in
    let* init = gen_partition ~fits (Codelayout.blocks p) in
    let* decl = gen_partition ~fits (Codelayout.blocks p) in
    return (p, init, decl))

let prop_engine_matches_ref_fields =
  QCheck2.Test.make
    ~name:"dense engine = list engine on random FLGs (every kind, portfolio)"
    ~count:150 gen_field_problem (fun (obj, init, decl) ->
      Diff_fields.agree obj ~init ~decl)

let prop_engine_matches_ref_blocks =
  QCheck2.Test.make
    ~name:
      "dense engine = list engine on random code layouts (every kind, \
       portfolio)" ~count:150 gen_block_problem (fun (p, init, decl) ->
      Diff_blocks.agree p ~init ~decl)

(* ------------------------------------------------------------------ *)
(* Golden pin: the portfolio's output on the kernel structs and on the
   code-layout trap, captured from the list-based engine. Each candidate
   is pinned by label, the bits of its score, its move count and an MD5
   of its block names in order, so any change to enumeration order, the
   tie rule, the PRNG draws or the float summation order shows here. *)

let candidate_pin ~label ~score ~moves names =
  Printf.sprintf "%s %Lx %d %s" label (Int64.bits_of_float score) moves
    (Digest.to_hex
       (Digest.string
          (String.concat "|" (List.map (String.concat ",") names))))

let kernel_pins =
  lazy
    (let counts = Collect.profile () in
     let samples = Collect.samples () in
     let params = Collect.calibrated_params in
     List.map
       (fun s ->
         let flg = Collect.flg ~params ~counts ~samples ~struct_name:s () in
         let pf =
           Pipeline.search ~params ~restarts:4 ~seed:11
             ~selector:Optimizer.Portfolio flg
         in
         ( s,
           List.map
             (fun (r : Optimizer.result) ->
               candidate_pin ~label:r.Optimizer.label ~score:r.Optimizer.score
                 ~moves:r.Optimizer.moves
                 (List.map
                    (List.map (fun (f : Field.t) -> f.Field.name))
                    r.Optimizer.blocks))
             pf.Optimizer.scoreboard ))
       Kernel.struct_names)

let ctrap_pins () =
  let p =
    Codelayout.of_program ~capacity:Ctrap.icache.Slo_sim.Coherence.i_line_size
      (Ctrap.program ()) (Ctrap.profile ())
  in
  let pf = Codelayout.search ~seed:11 ~restarts:4 p Engine.Portfolio in
  List.map
    (fun (r : Codelayout.result) ->
      candidate_pin ~label:r.Codelayout.label ~score:r.Codelayout.score
        ~moves:r.Codelayout.moves
        (List.map (List.map Codelayout.Block.name) r.Codelayout.bins))
    pf.Codelayout.scoreboard

let golden_kernel =
  [
    ( "A",
      [
        "greedy 40d71b2666666666 0 9627c6d5da753882759c80d7b0bd66a8";
        "swap 40d71b2666666666 0 9627c6d5da753882759c80d7b0bd66a8";
        "anneal#0 40d71b2666666666 2103 9627c6d5da753882759c80d7b0bd66a8";
        "anneal#1 40d71b2666666666 2098 9627c6d5da753882759c80d7b0bd66a8";
        "anneal#2 40d71b2666666666 2052 9627c6d5da753882759c80d7b0bd66a8";
        "anneal#3 40d71b2666666666 1984 9627c6d5da753882759c80d7b0bd66a8";
        "swap@decl 40d70f2666666666 10 994b8a5ebc05981ef7ea6d09b107a589";
      ] );
    ( "B",
      [
        "greedy 40a2000000000000 0 93fae721727fd215a9dad4ab42252354";
        "swap 40a2000000000000 0 93fae721727fd215a9dad4ab42252354";
        "swap@decl 40a2000000000000 0 ea5a937454245aa3646151c64f32cfb0";
        "anneal#0 40a2000000000000 747 93fae721727fd215a9dad4ab42252354";
        "anneal#1 40a2000000000000 784 93fae721727fd215a9dad4ab42252354";
        "anneal#2 40a2000000000000 709 93fae721727fd215a9dad4ab42252354";
        "anneal#3 40a2000000000000 794 93fae721727fd215a9dad4ab42252354";
      ] );
    ( "C",
      [
        "greedy 4068000000000000 0 f1aae132cbfec61c264aea1e094cb13f";
        "swap 4068000000000000 0 f1aae132cbfec61c264aea1e094cb13f";
        "swap@decl 4068000000000000 0 13841d3d97d7b616fa50b5a54ce4a80a";
        "anneal#0 4068000000000000 0 f1aae132cbfec61c264aea1e094cb13f";
        "anneal#1 4068000000000000 6 f1aae132cbfec61c264aea1e094cb13f";
        "anneal#2 4068000000000000 0 f1aae132cbfec61c264aea1e094cb13f";
        "anneal#3 4068000000000000 0 f1aae132cbfec61c264aea1e094cb13f";
      ] );
    ( "D",
      [
        "greedy 4079800000000000 0 2f7e6f09d4961320da81385e657c43ca";
        "swap 4079800000000000 0 2f7e6f09d4961320da81385e657c43ca";
        "swap@decl 4079800000000000 2 74772b5124075477110d3f366b607b57";
        "anneal#0 4079800000000000 362 2f7e6f09d4961320da81385e657c43ca";
        "anneal#1 4079800000000000 319 2f7e6f09d4961320da81385e657c43ca";
        "anneal#2 4079800000000000 283 b811c4e9f84e924d0bfdeba8c0a4e804";
        "anneal#3 4079800000000000 307 2f7e6f09d4961320da81385e657c43ca";
      ] );
    ( "E",
      [
        "greedy 4058000000000000 0 af32edfa66bee9b6e3677a7a1839a983";
        "swap 4058000000000000 0 af32edfa66bee9b6e3677a7a1839a983";
        "swap@decl 4058000000000000 1 6782b584b1d3951c8030a1ada2d1724c";
        "anneal#0 4058000000000000 189 af32edfa66bee9b6e3677a7a1839a983";
        "anneal#1 4058000000000000 173 af32edfa66bee9b6e3677a7a1839a983";
        "anneal#2 4058000000000000 193 af32edfa66bee9b6e3677a7a1839a983";
        "anneal#3 4058000000000000 160 af32edfa66bee9b6e3677a7a1839a983";
      ] );
  ]

let golden_ctrap =
  [
    "swap 40a8000000000000 24 09e2742ea15aa1a64aa61a14cd6b3d56";
    "anneal#1 409ae80000000000 4964 2cd17ca808b7efc6df50a3daaafa3ab2";
    "anneal#3 4099040000000000 5156 d0c3c6ac80d3e232e99239677ebfbf0b";
    "anneal#2 4098080000000000 4487 d6830e4c80463b1a77f4f97fe0b4de17";
    "anneal#0 4098040000000000 4986 9d160323d746ee2cc5ecb88d232acbd9";
    "greedy 4089800000000000 0 c2b5d2a3641d57e5a81f8775541cdd27";
  ]

let test_golden_kernel s () =
  Alcotest.(check (list string))
    (Printf.sprintf "struct %s portfolio" s)
    (List.assoc s golden_kernel)
    (List.assoc s (Lazy.force kernel_pins))

let test_golden_ctrap () =
  Alcotest.(check (list string)) "ctrap portfolio" golden_ctrap (ctrap_pins ())

let suites =
  [
    ( "search.objective",
      [
        Alcotest.test_case "make validation" `Quick test_make_validation;
        Alcotest.test_case "hand-computed scores" `Quick
          test_score_hand_computed;
        Alcotest.test_case "active fields" `Quick test_active_fields;
        QCheck_alcotest.to_alcotest prop_score_blocks_eq_score_layout;
        QCheck_alcotest.to_alcotest prop_gain_loss_decomposition;
      ] );
    ( "search.optimizer",
      [
        Alcotest.test_case "selector parsing" `Quick test_selector_parsing;
        Alcotest.test_case "run validation" `Quick test_run_validation;
        Alcotest.test_case "swap fixes the chain trap" `Quick
          test_swap_fixes_chain_trap;
        Alcotest.test_case "trap workload: search beats greedy" `Quick
          test_trap_search_beats_greedy;
        QCheck_alcotest.to_alcotest
          prop_optimizers_valid_and_never_below_greedy;
        QCheck_alcotest.to_alcotest prop_portfolio_vs_oracle;
      ] );
    ( "search.portfolio",
      [
        Alcotest.test_case "pool sizes 1/2/N byte-identical" `Quick
          test_portfolio_pool_identity;
        Alcotest.test_case "anneal determinism" `Quick test_anneal_deterministic;
        Alcotest.test_case "portfolio shape + obs" `Quick test_portfolio_shape;
        Alcotest.test_case "selector task counts" `Quick
          test_selector_task_counts;
      ] );
    ( "search.engine",
      [
        QCheck_alcotest.to_alcotest prop_engine_matches_ref_fields;
        QCheck_alcotest.to_alcotest prop_engine_matches_ref_blocks;
      ] );
    ( "search.golden",
      List.map
        (fun s ->
          Alcotest.test_case ("struct " ^ s ^ " portfolio pinned") `Quick
            (test_golden_kernel s))
        Kernel.struct_names
      @ [ Alcotest.test_case "ctrap portfolio pinned" `Quick test_golden_ctrap ]
    );
  ]
