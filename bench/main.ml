(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 8, 9, 10), the §4.3 CC-stability claim and the §5.1 machine
   characterization, plus ablations over the design choices DESIGN.md calls
   out and the scale/soundness sections of the later subsystems.

   Usage:
     dune exec bench/main.exe              # everything (a few minutes)
     dune exec bench/main.exe -- fig8      # one section
     dune exec bench/main.exe -- quick     # smaller machines / fewer runs
     dune exec bench/main.exe -- --jobs 4  # parallel simulator runs
     dune exec bench/main.exe -- --json b.json   # JSON artifacts + manifest

   --jobs N (or SLO_JOBS=N; default Domain.recommended_domain_count) fans
   independent simulator runs and per-struct analyses across a domain
   pool. Results are byte-identical for every N; test/test_exec.ml
   verifies exactly that.

   Every section returns its data plus a list of named gates. The driver
   writes both into BENCH_<section>.json and, after writing, exits 1
   naming any gate that is false. `dune build @gates` runs the gated
   sections (bench/dune).

   Absolute numbers are simulator cycles, not HP hardware; the shapes (who
   wins, by what factor, where effects vanish) are the reproduction target.
   See EXPERIMENTS.md for the paper-vs-measured record. *)

module Exp = Slo_workload.Experiments
module Collect = Slo_workload.Collect
module Kernel = Slo_workload.Kernel
module Sdet = Slo_workload.Sdet
module Topology = Slo_sim.Topology
module Layout = Slo_layout.Layout
module Field = Slo_layout.Field
module Cluster = Slo_core.Cluster
module Pipeline = Slo_core.Pipeline
module Sample = Slo_concurrency.Sample
module Stats = Slo_util.Stats
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs
module Json = Slo_obs.Json
module Artifact = Slo_bench.Artifact

let quick = ref false
let jobs = ref 0 (* 0 = SLO_JOBS / Domain.recommended_domain_count *)
let json_path = ref None (* --json PATH: manifest path; artifacts go next to it *)

(* What a section hands the driver: its artifact data and its named
   gates. A gate is a predicate the section's result must satisfy; an
   ungated section has none. *)
type result = { data : Json.t; gates : (string * bool) list }

let ungated f () = { data = f (); gates = [] }

let runs () = if !quick then 3 else 10
let big_cpus () = if !quick then 32 else 128

let effective_jobs () = if !jobs >= 1 then !jobs else Pool.default_jobs ()

(* ------------------------------------------------------------------ *)
(* JSON bench artifacts (--json PATH). Each section writes
   BENCH_<section>.json beside PATH with its data, gates and a metrics
   snapshot; PATH itself gets a manifest listing what was written. The
   format, and the checks check_json applies to it, are in artifact.mli. *)

let artifacts = ref [] (* (section, path), reverse run order *)

let pool_json () =
  (* On a 1-core box (or --jobs 1) no parallel batch runs; the serial
     path is trivially fully busy, so utilization defaults to 1.0. *)
  let utilization =
    match Obs.gauge "pool.utilization" with Some u -> u | None -> 1.0
  in
  Json.Obj
    [
      ("jobs", Json.Int (effective_jobs ()));
      ("tasks", Json.Int (Obs.counter "pool.tasks"));
      ("batches", Json.Int (Obs.counter "pool.batches"));
      ("utilization", Json.Float utilization);
    ]

let write_json path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.pretty j))

let write_artifact ~section:name ~wall { data; gates } =
  match !json_path with
  | None -> ()
  | Some manifest ->
    let path =
      Filename.concat (Filename.dirname manifest) ("BENCH_" ^ name ^ ".json")
    in
    write_json path
      (Artifact.make ~section:name ~git_rev:(Artifact.git_rev ())
         ~jobs:(effective_jobs ()) ~quick:!quick ~wall_s:wall ~data
         ~metrics:(Obs.to_json ()) ~pool:(pool_json ()) ~gates);
    artifacts := (name, path) :: !artifacts

let write_manifest () =
  match !json_path with
  | None -> ()
  | Some manifest ->
    write_json manifest
      (Artifact.manifest ~git_rev:(Artifact.git_rev ()) ~jobs:(effective_jobs ())
         ~quick:!quick (List.rev !artifacts))

(* One pool for the whole bench run, created on first use; [None] when
   running with a single job so the serial code paths stay exercised. *)
let pool_lazy =
  lazy
    (let n = effective_jobs () in
     let p = if n <= 1 then None else Some (Pool.create ~domains:n) in
     (* join the workers on any exit path, including a failed gate's exit *)
     Option.iter (fun p -> at_exit (fun () -> Pool.shutdown p)) p;
     p)

let pool () = Lazy.force pool_lazy

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let bar value =
  (* One '#' per 0.5% of speedup, sign-aware, clamped for the A outlier. *)
  let n = int_of_float (Float.abs value /. 0.5) in
  let n = min n 40 in
  (if value < 0.0 then "-" else "+") ^ String.make n '#'

let layouts_lazy = lazy (Exp.analyze_all ?pool:(pool ()) ())
let layouts () = Lazy.force layouts_lazy

let print_measurements title rows =
  Printf.printf "%-8s %12s %12s %12s\n" "struct" "automatic" "hotness"
    "incremental";
  List.iter
    (fun (m : Exp.measurement) ->
      Printf.printf "%-8s %+11.2f%% %+11.2f%% %+11.2f%%   auto %s\n"
        m.Exp.m_struct m.Exp.m_automatic m.Exp.m_hotness m.Exp.m_incremental
        (bar m.Exp.m_automatic))
    rows;
  Printf.printf
    "(%s; throughput speedup over hand-tuned baseline, trimmed mean of %d \
     runs)\n%!"
    title (runs ())

let measurements_json ~cpus rows =
  Json.Obj
    [
      ("cpus", Json.Int cpus);
      ("runs", Json.Int (runs ()));
      ( "rows",
        Json.List
          (List.map
             (fun (m : Exp.measurement) ->
               Json.Obj
                 [
                   ("struct", Json.Str m.Exp.m_struct);
                   ("automatic_pct", Json.Float m.Exp.m_automatic);
                   ("hotness_pct", Json.Float m.Exp.m_hotness);
                   ("incremental_pct", Json.Float m.Exp.m_incremental);
                 ])
             rows) );
    ]

let fig8_lazy =
  lazy (Exp.fig8 ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) (layouts ()))

let fig8_rows () = Lazy.force fig8_lazy

let run_fig8 () =
  section
    (Printf.sprintf
       "Figure 8: automatic layout vs sort-by-hotness, %d-way Superdome"
       (big_cpus ()));
  print_measurements "hierarchical machine" (fig8_rows ());
  Printf.printf
    "\nPaper shape: struct A degrades >2X under sort-by-hotness but only a\n\
     few %% under the FLG layout; B-E see small effects, with hotness\n\
     marginally ahead on some locality-dominated structs.\n%!";
  measurements_json ~cpus:(big_cpus ()) (fig8_rows ())

let run_fig9 () =
  section "Figure 9: same layouts on the 4-way bus machine";
  let rows = Exp.fig9 ~runs:(runs ()) ?pool:(pool ()) (layouts ()) in
  print_measurements "4-way bus machine" rows;
  Printf.printf
    "\nPaper shape: with cheap remote caches the false-sharing penalty\n\
     vanishes; every effect is within a few percent of baseline.\n%!";
  measurements_json ~cpus:4 rows

let run_fig10 () =
  section "Figure 10: best layout per struct (automatic vs incremental)";
  let rows = Exp.fig10 (fig8_rows ()) in
  List.iter
    (fun (r : Exp.fig10_row) ->
      Printf.printf "%-8s %+8.2f%%  (%-11s)  %s\n" r.Exp.b_struct r.Exp.b_best
        r.Exp.b_which (bar r.Exp.b_best))
    rows;
  Printf.printf
    "\nPaper shape: the incremental (important-edge subgraph) mode beats the\n\
     fully automatic layout on the huge false-sharing struct A; automatic\n\
     wins on the locality structs; best gains are a few percent.\n%!";
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun (r : Exp.fig10_row) ->
               Json.Obj
                 [
                   ("struct", Json.Str r.Exp.b_struct);
                   ("best_pct", Json.Float r.Exp.b_best);
                   ("which", Json.Str r.Exp.b_which);
                 ])
             rows) );
    ]

let run_gvl () =
  section "Extension: Global Variable Layout (paper §7 future work)";
  let big, bus = Exp.gvl ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) () in
  Printf.printf
    "globals segment: CC-aware layout vs declaration order\n\
     %d-way machine: %+.2f%%\n4-way bus:      %+.2f%%\n" (big_cpus ()) big bus;
  Printf.printf
    "(expected: the declaration order interleaves per-quadrant counters\n\
     with read-mostly globals on one line; separating them pays on the\n\
     big machine and is neutral on the bus)\n%!";
  Json.Obj
    [
      ("cpus", Json.Int (big_cpus ()));
      ("big_pct", Json.Float big);
      ("bus_pct", Json.Float bus);
    ]

let run_cc_stability () =
  section "§4.3: CodeConcurrency stability across machine sizes";
  let rho = Exp.cc_stability () in
  Printf.printf
    "Spearman rank correlation of top-40 CC pairs, 4-way vs 16-way: %.3f\n"
    rho;
  Printf.printf
    "(paper: \"source line pairs with high concurrency values remain more\n\
     or less the same in both the 4 way and 16 way machines\")\n%!";
  Json.Obj [ ("spearman_rho", Json.Float rho) ]

let run_topology () =
  section "§5.1: machine characterization (cache-to-cache transfer cycles)";
  let topo = Topology.superdome () in
  Printf.printf "%s\n" (Topology.describe topo);
  let hops =
    [
      ("same chip", 0, 1);
      ("same bus", 0, 2);
      ("same cell", 0, 4);
      ("same crossbar", 0, 16);
      ("across crossbars", 0, 64);
    ]
  in
  let rows =
    List.map
      (fun (label, src, dst) ->
        let cycles = Topology.transfer_latency topo ~src ~dst in
        Printf.printf "  %-24s cpu%3d -> cpu%3d : %4d cycles\n" label src dst
          cycles;
        Json.Obj
          [
            ("hop", Json.Str label);
            ("src", Json.Int src);
            ("dst", Json.Int dst);
            ("cycles", Json.Int cycles);
          ])
      hops
  in
  Printf.printf "  %-24s %17s : %4d cycles\n" "memory" ""
    (Topology.memory_latency topo);
  let bus = Topology.bus () in
  Printf.printf "%s\n%!" (Topology.describe bus);
  Json.Obj
    [
      ("transfers", Json.List rows);
      ("memory_cycles", Json.Int (Topology.memory_latency topo));
    ]

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ctr_mistakes layout =
  (* Count layout mistakes on struct A: counters sharing a line with each
     other or with hot read fields. *)
  let is_ctr n = String.length n >= 5 && String.sub n 0 5 = "a_ctr" in
  let hot = [ "a_flags"; "a_state"; "a_owner"; "a_rss" ] in
  let pairs = ref 0 and on_hot = ref 0 in
  for line = 0 to Layout.lines_used layout ~line_size:128 - 1 do
    let names =
      List.map
        (fun (f : Field.t) -> f.Field.name)
        (Layout.fields_on_line layout ~line_size:128 line)
    in
    let ctrs = List.length (List.filter is_ctr names) in
    if ctrs > 1 then pairs := !pairs + (ctrs - 1);
    if ctrs > 0 && List.exists (fun h -> List.mem h names) hot then incr on_hot
  done;
  (!pairs, !on_hot)

let run_ablation_k2 () =
  section "Ablation 1: k2 (CycleLoss scale) sweep on struct A";
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ()) ()) in
  let base = Sdet.measure ?pool:(pool ()) cfg ~runs:3 in
  Printf.printf "%-6s %18s %18s %10s\n" "k2" "ctr/ctr colocated"
    "ctr on hot line" "speedup";
  List.iter
    (fun k2 ->
      let params = { Collect.calibrated_params with Pipeline.k2 } in
      let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
      let layout = Pipeline.automatic_layout ~params flg in
      let pairs, on_hot = ctr_mistakes layout in
      let m = Sdet.measure ?pool:(pool ()) { cfg with overrides = [ layout ] } ~runs:3 in
      Printf.printf "%-6.1f %18d %18d %+9.2f%%\n%!" k2 pairs on_hot
        (Stats.speedup_percent ~baseline:base ~measured:m))
    [ 0.0; 0.5; 1.0; 2.0; 4.0; 8.0 ];
  Printf.printf
    "\nExpected: with k2 too small the FLG degenerates to pure locality and\n\
     writers pile onto shared lines (the sort-by-hotness failure); large k2\n\
     separates everything. The default (%.1f) keeps one residual mistake —\n\
     the paper's 'greedy is suboptimal on >100 fields' result.\n%!"
    Collect.calibrated_params.Pipeline.k2;
  Json.Null

let run_ablation_sampling () =
  section "Ablation 2: PMU sampling period vs layout quality (struct A)";
  let counts = Collect.profile () in
  let params = Collect.calibrated_params in
  Printf.printf "%-10s %10s %18s %18s\n" "period" "samples"
    "ctr/ctr colocated" "ctr on hot line";
  List.iter
    (fun period ->
      let samples = Collect.samples ~period () in
      let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
      let layout = Pipeline.automatic_layout ~params flg in
      let pairs, on_hot = ctr_mistakes layout in
      Printf.printf "%-10d %10d %18d %18d\n%!" period (List.length samples)
        pairs on_hot)
    [ 200; 400; 800; 1600; 3200 ];
  Printf.printf
    "\nExpected: sparser sampling starves CodeConcurrency of coincident\n\
     samples on short code (counter updates), so more counters get\n\
     colocated — the cost of the paper's lightweight sampling approach.\n%!";
  Json.Null

let run_ablation_clustering () =
  section "Ablation 3: clustering policies on struct A";
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
  let baseline_layout = Kernel.baseline_layout "A" in
  let cfg = Sdet.default_config (Topology.superdome ~cpus:(big_cpus ()) ()) in
  let base = Sdet.measure ?pool:(pool ()) cfg ~runs:3 in
  let raw_clusters = Cluster.run ~pack_cold:false flg ~line_size:128 in
  let variants =
    [
      ("baseline (hand-tuned)", baseline_layout);
      ("greedy FLG", Pipeline.automatic_layout ~params flg);
      ( "greedy FLG, no cold packing",
        Cluster.layout_of_clusters flg ~line_size:128 raw_clusters );
      ( "subgraph constraints on baseline",
        Pipeline.incremental_layout ~params flg ~baseline:baseline_layout );
      ("sort-by-hotness", Pipeline.hotness_layout flg);
    ]
  in
  Printf.printf "%-34s %8s %10s\n" "policy" "lines" "speedup";
  List.iter
    (fun (name, layout) ->
      let m = Sdet.measure ?pool:(pool ()) { cfg with overrides = [ layout ] } ~runs:3 in
      Printf.printf "%-34s %8d %+9.2f%%\n%!" name
        (Layout.lines_used layout ~line_size:128)
        (Stats.speedup_percent ~baseline:base ~measured:m))
    variants;
  Printf.printf
    "\nExpected: raw Figure-6 clustering explodes the footprint (every cold\n\
     field gets a line); cold packing fixes that; subgraph constraints\n\
     preserve the hand layout; hotness collapses.\n%!";
  Json.Null

let run_ablation_machines () =
  section "Ablation 4: false-sharing penalty vs machine size (struct A)";
  let ls = layouts () in
  let a = List.find (fun l -> l.Exp.struct_name = "A") ls in
  Printf.printf "%-8s %14s %14s\n" "cpus" "hotness" "automatic";
  List.iter
    (fun cpus ->
      let cfg = Sdet.default_config (Topology.superdome ~cpus ()) in
      let base = Sdet.measure ?pool:(pool ()) cfg ~runs:3 in
      let m layout =
        Stats.speedup_percent ~baseline:base
          ~measured:(Sdet.measure ?pool:(pool ()) { cfg with overrides = [ layout ] } ~runs:3)
      in
      Printf.printf "%-8d %+13.2f%% %+13.2f%%\n%!" cpus (m a.Exp.hotness)
        (m a.Exp.automatic))
    [ 2; 8; 32; 128 ];
  Printf.printf
    "\nExpected: the naive layout's penalty grows with machine size (deeper\n\
     topology, costlier invalidations); the FLG layout stays near baseline.\n%!";
  Json.Null

let run_accumulation () =
  section "§5.2: are the per-struct improvements accumulative?";
  let acc = Exp.accumulation ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) (layouts ()) in
  List.iter
    (fun (name, v) -> Printf.printf "best layout for %-4s alone: %+6.2f%%\n" name v)
    acc.Exp.acc_individual;
  Printf.printf "sum of individual gains:    %+6.2f%%\n" acc.Exp.acc_sum;
  Printf.printf "all best layouts combined:  %+6.2f%%\n" acc.Exp.acc_combined;
  Printf.printf
    "\n(paper: \"Note that these improvements are not accumulative. This can\n\
     be explained by the highly tuned nature of the HP-UX kernel.\")\n%!";
  Json.Obj
    [
      ( "individual_pct",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) acc.Exp.acc_individual)
      );
      ("sum_pct", Json.Float acc.Exp.acc_sum);
      ("combined_pct", Json.Float acc.Exp.acc_combined);
    ]

let run_userapp () =
  section "Prediction check: an untuned user-level application";
  let module Userapp = Slo_workload.Userapp in
  let r = Userapp.experiment ~runs:(runs ()) ~cpus:(big_cpus ()) ?pool:(pool ()) () in
  List.iter
    (fun (name, v) ->
      Printf.printf "tool layout for %-5s alone: %+7.2f%%\n" name v)
    r.Userapp.u_individual;
  Printf.printf "GVL layout for globals:      %+7.2f%%\n" r.Userapp.u_globals;
  Printf.printf "sum of individual gains:     %+7.2f%%\n" r.Userapp.u_sum;
  Printf.printf "all layouts combined:        %+7.2f%%\n" r.Userapp.u_combined;
  Printf.printf
    "\n(paper §5: for programs without years of hand tuning \"the benefit of\n\
     the tool is likely to be pronounced\", and accumulation \"is not\n\
     expected to be a problem\" — gains here should be larger than the\n\
     kernel's and roughly additive)\n%!";
  Json.Obj
    [
      ( "individual_pct",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) r.Userapp.u_individual)
      );
      ("globals_pct", Json.Float r.Userapp.u_globals);
      ("sum_pct", Json.Float r.Userapp.u_sum);
      ("combined_pct", Json.Float r.Userapp.u_combined);
    ]

let run_oracle () =
  section "§3 discussion: trace oracle vs CodeConcurrency on struct A";
  let module Trace_oracle = Slo_sim.Trace_oracle in
  let cfg =
    { (Sdet.default_config (Topology.superdome ~cpus:16 ())) with
      Sdet.reps = 60 }
  in
  let oracle = Sdet.trace_oracle cfg in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let flg = Collect.flg ~params ~counts ~samples ~struct_name:"A" () in
  Printf.printf "%-22s %16s %18s\n" "field pair" "oracle (events)"
    "CC estimate (k2*CC)";
  let show f1 f2 =
    let o = Trace_oracle.loss oracle ~struct_name:"A" f1 f2 in
    let cc = Slo_graph.Sgraph.weight0 flg.Slo_core.Flg.loss f1 f2 in
    Printf.printf "%-22s %16d %18.0f\n" (f1 ^ " / " ^ f2)
      o.Trace_oracle.ps_false cc
  in
  (* pairs the baseline layout colocates: the oracle sees them *)
  show "a_gen" "a_ctr7";
  show "a_mask" "a_ctr7";
  (* pairs the baseline already separates: the oracle is blind, CC is not *)
  show "a_ctr0" "a_ctr1";
  show "a_ctr2" "a_ctr5";
  show "a_ctr0" "a_flags";
  Printf.printf
    "\ntotal same-instance events in trace: false %d, true %d\n"
    (Trace_oracle.total_false_sharing oracle)
    (Trace_oracle.total_true_sharing oracle);
  Printf.printf
    "\nExpected: the oracle confirms the false sharing the current layout\n\
     exhibits (the baseline's a_gen/a_mask flaw) but reports zero for the\n\
     padded counter pairs — §3's argument for why measuring false sharing\n\
     cannot drive layout, and why CodeConcurrency (which still flags those\n\
     pairs) exists.\n%!";
  Json.Null

let run_ablation_protocol () =
  section "Ablation 5: MESI vs MOESI on the SDET workload";
  let module Coherence = Slo_sim.Coherence in
  let module Machine = Slo_sim.Machine in
  let module Sim_stats = Slo_sim.Sim_stats in
  Printf.printf "%-8s %14s %14s %14s\n" "proto" "throughput" "writebacks"
    "invalidations";
  let run (name, protocol) =
    let cfg =
      { (Sdet.default_config (Topology.superdome ~cpus:(big_cpus ()) ())) with
        Sdet.protocol }
    in
    let r = Sdet.run_once cfg in
    let st = r.Machine.stats in
    Printf.printf "%-8s %14.1f %14d %14d\n%!" name (Machine.throughput r)
      st.Sim_stats.writebacks st.Sim_stats.invalidations;
    (name, Machine.throughput r, st)
  in
  let rows = List.map run [ ("MESI", Coherence.Mesi); ("MOESI", Coherence.Moesi) ] in
  let delta f =
    match rows with
    | [ (_, _, mesi); (_, _, moesi) ] when f mesi > 0 ->
      100.0 *. float_of_int (f moesi - f mesi) /. float_of_int (f mesi)
    | _ -> 0.0
  in
  Printf.printf
    "\nMOESI against MESI: invalidations %+.1f%%, writebacks %+.1f%%.\n\
     The invalidation traffic layout decisions react to barely depends on\n\
     the protocol, as the paper assumes for the MESI family; MOESI defers\n\
     the writeback of a dirty line a remote CPU reads until the line is\n\
     evicted or invalidated.\n%!"
    (delta (fun st -> st.Sim_stats.invalidations))
    (delta (fun st -> st.Sim_stats.writebacks));
  Json.Obj
    (List.map
       (fun (name, throughput, st) ->
         ( name,
           Json.Obj
             [
               ("throughput", Json.Float throughput);
               ("writebacks", Json.Int st.Sim_stats.writebacks);
               ("invalidations", Json.Int st.Sim_stats.invalidations);
             ] ))
       rows)

(* ------------------------------------------------------------------ *)
(* Metaheuristic layout search (lib/search) over the kernel corpus: run
   the full portfolio per struct and gate on best >= greedy on the shared
   objective, on a strict win on the greedy-trap workload, and on the
   simulator confirming a win when SDET re-runs with the two layouts. *)

let run_layout_search () =
  section "layout_search: metaheuristic portfolio vs greedy clustering";
  let module Optimizer = Slo_search.Optimizer in
  let counts = Collect.profile () in
  let samples = Collect.samples () in
  let params = Collect.calibrated_params in
  let restarts = if !quick then 6 else 12 in
  let seed = 0 in
  Printf.printf
    "portfolio = greedy + swap + swap@decl + %d annealing restarts (seed %d)\n"
    restarts seed;
  Printf.printf "%-8s %12s %12s %10s  %s\n" "struct" "greedy" "best" "delta"
    "winner";
  let search ?params name flg =
    let p =
      Pipeline.search ?params ?pool:(pool ()) ~seed ~restarts
        ~selector:Optimizer.Portfolio flg
    in
    let g = p.Optimizer.greedy.Optimizer.score in
    let b = p.Optimizer.best.Optimizer.score in
    Printf.printf "%-8s %12.1f %12.1f %10.1f  %s\n%!" name g b (b -. g)
      p.Optimizer.best.Optimizer.label;
    (name, p)
  in
  let kernel_structs =
    List.map
      (fun name ->
        search ~params name
          (Collect.flg ~params ~counts ~samples ~struct_name:name ()))
      Kernel.struct_names
  in
  (* The greedy-trap workload (Slo_workload.Trap): a struct engineered so
     the Figure-7 clusterer is provably suboptimal on the shared
     objective. Here the search must win STRICTLY, and the win must show
     up as fewer simulated cycles. *)
  let module Trap = Slo_workload.Trap in
  let _, trap = search "trap" (Trap.flg ()) in
  let per_struct = kernel_structs @ [ ("trap", trap) ] in
  (* Simulator validation: structs that improved on the objective re-run
     their workload with the greedy layout vs the best-found layout; the
     trap uses its own driver, kernel structs use SDET. *)
  let module Machine = Slo_sim.Machine in
  let score (r : Optimizer.result) = r.Optimizer.score in
  let improved =
    List.filter
      (fun (_, p) ->
        score p.Optimizer.best > score p.Optimizer.greedy +. 1e-9)
      per_struct
  in
  let cfg =
    Sdet.default_config
      (Topology.superdome ~cpus:(if !quick then 16 else 32) ())
  in
  let sim_seeds = [ 1; 2; 3 ] in
  let sdet_cycles layout =
    List.fold_left
      (fun acc seed ->
        let r = Sdet.run_once { cfg with Sdet.overrides = [ layout ]; seed } in
        acc + r.Machine.makespan)
      0 sim_seeds
  in
  let sim_rows =
    List.map
      (fun ((name, p) : string * Optimizer.portfolio) ->
        let cycles =
          if name = "trap" then fun l -> Trap.measure_makespan l
          else sdet_cycles
        in
        let cg = cycles p.Optimizer.greedy.Optimizer.layout in
        let cb = cycles p.Optimizer.best.Optimizer.layout in
        Printf.printf
          "sim %-6s greedy %9d cycles | %-10s %9d cycles  -> %s\n%!" name cg
          p.Optimizer.best.Optimizer.label cb
          (if cb < cg then "confirmed (fewer cycles)" else "not confirmed");
        (name, p.Optimizer.best.Optimizer.label, cg, cb))
      improved
  in
  let confirmed = List.exists (fun (_, _, cg, cb) -> cb < cg) sim_rows in
  Printf.printf "simulator confirmation: %s\n%!"
    (if confirmed then "yes" else "no");
  let beats ~strict (p : Optimizer.portfolio) =
    let b = score p.Optimizer.best and g = score p.Optimizer.greedy in
    if strict then b > g else b >= g
  in
  let gates =
    List.map (fun (n, p) -> ("best_ge_greedy." ^ n, beats ~strict:false p))
      per_struct
    @ [
        ("trap_strict_win", beats ~strict:true trap);
        ("sim_confirmed", confirmed);
      ]
  in
  { gates; data = Json.Obj
    [
      ("restarts", Json.Int restarts);
      ("seed", Json.Int seed);
      ( "structs",
        Json.List
          (List.map
             (fun ((name, p) : string * Optimizer.portfolio) ->
               Json.Obj
                 [
                   ("struct", Json.Str name);
                   ( "greedy_score",
                     Json.Float p.Optimizer.greedy.Optimizer.score );
                   ("best_score", Json.Float p.Optimizer.best.Optimizer.score);
                   ("winner", Json.Str p.Optimizer.best.Optimizer.label);
                   ( "scoreboard",
                     Json.List
                       (List.map
                          (fun (r : Optimizer.result) ->
                            Json.Obj
                              [
                                ("candidate", Json.Str r.Optimizer.label);
                                ("score", Json.Float r.Optimizer.score);
                                ("moves", Json.Int r.Optimizer.moves);
                              ])
                          p.Optimizer.scoreboard) );
                 ])
             per_struct) );
      ( "sim",
        Json.List
          (List.map
             (fun (name, label, cg, cb) ->
               Json.Obj
                 [
                   ("struct", Json.Str name);
                   ("winner", Json.Str label);
                   ("greedy_cycles", Json.Int cg);
                   ("best_cycles", Json.Int cb);
                   ("improved", Json.Bool (cb < cg));
                 ])
             sim_rows) );
      ("sim_confirmed", Json.Bool confirmed);
    ] }

(* ------------------------------------------------------------------ *)
(* The memory-system kernel against its spec: replay an SDET trace
   through the kernel (accesses/s, misses/s by class), single-level and
   with the multi-level hierarchy, and once through Coherence_spec; plus
   the NUMA-trap layout demo. Gates: the kernel's totals equal the
   spec's, the kernel keeps a 3x throughput lead over the spec, the
   hierarchy costs the kernel at most 30% of its single-level throughput,
   and the hierarchy-aware layout wins where it must. Result identity
   across protocols and topologies (>62 CPUs included) and under a domain
   pool is the sim.kernel.differential, sim.kernel.machine and
   exec.determinism suites' job. *)

let run_sim_scale () =
  section "sim_scale: memory-system kernel vs its spec";
  let module Machine = Slo_sim.Machine in
  let module Coherence = Slo_sim.Coherence in
  let module Spec = Slo_sim.Coherence_spec in
  let module Sim_stats = Slo_sim.Sim_stats in
  let base ~cpus = Sdet.default_config (Topology.superdome ~cpus ()) in
  (* 1. Memory-system throughput: record SDET's access trace once, then
     replay it straight into the kernel. This isolates the memory system
     from the interpreter around it. The spec replays the same trace once
     per hierarchy setting: its totals must equal the kernel's first
     pass, and its rate is the throughput floor's comparand. *)
  let cpus = if !quick then 16 else 32 in
  let reps = if !quick then 12 else 30 in
  let replays = if !quick then 10 else 20 in
  let cfg = { (base ~cpus) with Sdet.reps } in
  let trace =
    Array.of_list
      (Sdet.run_once { cfg with Sdet.trace = true }).Machine.trace
  in
  let n_trace = Array.length trace in
  let kernel ?hierarchy () =
    Coherence.create cfg.Sdet.topology ~line_size:Kernel.line_size
      ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol
      ?hierarchy ()
  in
  let replay_into coh =
    Array.iter
      (fun (ev : Machine.trace_event) ->
        ignore
          (Coherence.access coh ~cpu:ev.Machine.t_cpu ~addr:ev.Machine.t_addr
             ~size:ev.Machine.t_size ~is_write:ev.Machine.t_is_write))
      trace
  in
  let replay ?hierarchy () =
    let coh = kernel ?hierarchy () in
    let t0 = Obs.now () in
    for _rep = 1 to replays do
      replay_into coh
    done;
    (Coherence.total_stats coh, Obs.now () -. t0)
  in
  let first_pass ?hierarchy () =
    let coh = kernel ?hierarchy () in
    replay_into coh;
    Coherence.total_stats coh
  in
  let spec_replay ?hierarchy () =
    let t0 = Obs.now () in
    let final =
      Array.fold_left
        (fun s (ev : Machine.trace_event) ->
          fst
            (Spec.access s ~cpu:ev.Machine.t_cpu ~addr:ev.Machine.t_addr
               ~size:ev.Machine.t_size ~is_write:ev.Machine.t_is_write))
        (Spec.create cfg.Sdet.topology ~line_size:Kernel.line_size
           ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol
           ?hierarchy ())
        trace
    in
    (Spec.total_stats final, Obs.now () -. t0)
  in
  (* Five rounds, each timing the kernel's two replays (single-level and
     hierarchy) back to back. The replays are deterministic, so attempts
     differ only by machine noise: each wall number is the best of its
     five attempts, and the single-level ratio (gated below) is the median
     over the rounds of that round's own ratio. A round's replays share
     the machine's state, and the median drops the rounds a descheduled
     or an unusually fast stretch landed on; a ratio of two separately
     taken minima does not (on a 2-core host it read 0.61-0.95, against
     0.85-0.98 for the round median). *)
  let module Ntrap = Slo_workload.Ntrap in
  let hier_geometry = Ntrap.hierarchy in
  let rounds =
    List.init 5 (fun _ ->
        List.map (fun f -> f ()) [ replay; replay ~hierarchy:hier_geometry ])
  in
  let best i =
    let tries = List.map (fun r -> List.nth r i) rounds in
    (fst (List.hd tries), List.fold_left (fun m (_, w) -> min m w) infinity tries)
  in
  let flat_totals, flat_wall = best 0 in
  let hier_flat_totals, hier_flat_wall = best 1 in
  let spec_totals, spec_wall = spec_replay () in
  let hier_spec_totals, hier_spec_wall = spec_replay ~hierarchy:hier_geometry () in
  let accesses st = st.Sim_stats.loads + st.Sim_stats.stores in
  let per_s wall n = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  let replay_json st wall =
    Json.Obj
      [
        ("wall_s", Json.Float wall);
        ("accesses_per_s", Json.Float (per_s wall (accesses st)));
        ( "misses_per_s",
          Json.Obj
            [
              ("cold", Json.Float (per_s wall st.Sim_stats.cold_misses));
              ("capacity", Json.Float (per_s wall st.Sim_stats.capacity_misses));
              ( "true_sharing",
                Json.Float (per_s wall st.Sim_stats.true_sharing_misses) );
              ( "false_sharing",
                Json.Float (per_s wall st.Sim_stats.false_sharing_misses) );
            ] );
      ]
  in
  let rate_ratio (num, wn) (den, wd) =
    let d = per_s wd (accesses den) in
    if d > 0.0 then per_s wn (accesses num) /. d else 0.0
  in
  let speedup = rate_ratio (flat_totals, flat_wall) (spec_totals, spec_wall) in
  Printf.printf
    "trace replay: %d SDET accesses x %d replays (%d CPUs, %d reps); the spec \
     replays once\n"
    n_trace replays cpus reps;
  Printf.printf "%-10s %12s %14s %14s\n" "replay" "wall (s)" "accesses/s"
    "misses/s";
  let print_row name st wall =
    let misses =
      st.Sim_stats.cold_misses + st.Sim_stats.capacity_misses
      + st.Sim_stats.true_sharing_misses + st.Sim_stats.false_sharing_misses
    in
    Printf.printf "%-10s %12.4f %14.0f %14.0f\n%!" name wall
      (per_s wall (accesses st))
      (per_s wall misses)
  in
  print_row "spec" spec_totals spec_wall;
  print_row "kernel" flat_totals flat_wall;
  Printf.printf "kernel over spec: %.2fx accesses/s\n%!" speedup;
  (* 2. Multi-level hierarchy: the same trace replayed with private L1s
     and per-cell victim LLCs in front of the coherent caches. Three
     gates: the kernel's totals equal the spec's, the kernel keeps a >= 3x
     throughput lead over the spec, and the hierarchy machinery costs the
     kernel at most 30% of its single-level throughput. *)
  let hier_speedup =
    rate_ratio (hier_flat_totals, hier_flat_wall) (hier_spec_totals, hier_spec_wall)
  in
  let single_level_ratio =
    Stats.median
      (List.map
         (fun r ->
           match r with
           | [ (st, w); (hst, hw) ] -> rate_ratio (hst, hw) (st, w)
           | _ -> assert false)
         rounds)
  in
  Printf.printf
    "multi-level replay (L1 %d lines, LLC %d lines per cell):\n"
    hier_geometry.Coherence.h_l1_lines hier_geometry.Coherence.h_llc_lines;
  print_row "spec" hier_spec_totals hier_spec_wall;
  print_row "kernel" hier_flat_totals hier_flat_wall;
  Printf.printf
    "multi-level kernel over spec: %.2fx accesses/s (gate: >= 3x); %.2fx of \
     single-level kernel throughput (gate: >= 0.7x)\n%!"
    hier_speedup single_level_ratio;
  (* 3. The NUMA trap demo: the hierarchy-aware objective must strictly
     beat the distance-blind one in simulated cycles on the 128-CPU
     Superdome, and must not lose on the 4-CPU bus (where the two
     objectives pick the same layout and the makespans are a wash). *)
  let demo topo name ~require_strict =
    let mk_hier = Ntrap.measure_makespan ~topo (Ntrap.layout_hier topo) in
    let mk_flat = Ntrap.measure_makespan ~topo (Ntrap.layout_flat topo) in
    let win_pct =
      if mk_flat > 0 then
        100.0 *. (1.0 -. (float_of_int mk_hier /. float_of_int mk_flat))
      else 0.0
    in
    Printf.printf
      "ntrap %-14s hier-aware %8d cycles, flat %8d cycles (%+.2f%%)\n%!" name
      mk_hier mk_flat win_pct;
    let gate =
      if require_strict then ("ntrap_strict_win." ^ name, mk_hier < mk_flat)
      else ("ntrap_no_loss." ^ name, mk_hier <= mk_flat)
    in
    ( gate,
      ( name,
        Json.Obj
          [
            ("hier_cycles", Json.Int mk_hier);
            ("flat_cycles", Json.Int mk_flat);
            ("win_pct", Json.Float win_pct);
            ("strict_win_required", Json.Bool require_strict);
          ] ) )
  in
  let sd =
    demo (Topology.superdome ~cpus:128 ()) "superdome128" ~require_strict:true
  in
  let bus = demo (Topology.bus ~cpus:4 ()) "bus4" ~require_strict:false in
  let demos = [ sd; bus ] in
  let identical = first_pass () = spec_totals in
  let hier_identical = first_pass ~hierarchy:hier_geometry () = hier_spec_totals in
  let gates =
    [
      ("replay_identical", identical);
      ("kernel_counters_moved", Obs.counter "sim.kernel.runs" > 0);
      ("hier_replay_identical", hier_identical);
      ("hier_speedup_ge_3x", hier_speedup >= 3.0);
      ("hier_within_30pct_of_single_level", single_level_ratio >= 0.7);
      ("llc_counters_moved", Obs.counter "sim.llc.runs" > 0);
    ]
    @ List.map fst demos
  in
  { gates; data = Json.Obj
    [
      ("cpus", Json.Int cpus);
      ("reps", Json.Int reps);
      ("trace_accesses", Json.Int n_trace);
      ("replays", Json.Int replays);
      ("identical", Json.Bool identical);
      ("kernel", replay_json flat_totals flat_wall);
      ("spec", replay_json spec_totals spec_wall);
      ("speedup_x", Json.Float speedup);
      ("kernel_runs_counter", Json.Int (Obs.counter "sim.kernel.runs"));
      ( "hierarchy",
        Json.Obj
          [
            ("l1_lines", Json.Int hier_geometry.Coherence.h_l1_lines);
            ("llc_lines", Json.Int hier_geometry.Coherence.h_llc_lines);
            ("identical", Json.Bool hier_identical);
            ( "hits",
              Json.Obj
                [
                  ("l1", Json.Int hier_flat_totals.Sim_stats.l1_hits);
                  ("l2", Json.Int hier_flat_totals.Sim_stats.l2_hits);
                  ( "llc_local",
                    Json.Int hier_flat_totals.Sim_stats.llc_local_hits );
                  ( "llc_remote",
                    Json.Int hier_flat_totals.Sim_stats.llc_remote_hits );
                ] );
            ("kernel", replay_json hier_flat_totals hier_flat_wall);
            ("spec", replay_json hier_spec_totals hier_spec_wall);
            ("speedup_x", Json.Float hier_speedup);
            ("single_level_ratio", Json.Float single_level_ratio);
            ( "demo",
              Json.Obj (List.map snd demos) );
            ("llc_runs_counter", Json.Int (Obs.counter "sim.llc.runs"));
          ] );
    ] }

(* ------------------------------------------------------------------ *)
(* Always-on layout service: drive a running serve daemon with a phased,
   multi-client feed of the kernel corpus's PMU samples, then gate on (1)
   the retire-by-subtraction sliding window equalling a from-scratch
   re-bin of the final window's samples and (2) at least one
   drift-triggered re-search publishing a new versioned layout. The
   snapshot/restore identity is the serve.server suite's. *)

let run_serve () =
  section "serve: always-on layout service (sliding window + re-search)";
  let module Serve = Slo_serve.Serve in
  let module Window = Slo_serve.Window in
  let module Optimizer = Slo_search.Optimizer in
  let program = Kernel.program () in
  let counts = Collect.profile () in
  let base = Collect.samples () in
  let params = Collect.calibrated_params in
  let interval = params.Pipeline.cc_interval in
  let lo =
    List.fold_left (fun a (s : Sample.t) -> min a s.Sample.itc) max_int base
  in
  let hi =
    List.fold_left (fun a (s : Sample.t) -> max a s.Sample.itc) min_int base
  in
  let span = (((hi - lo) / interval) + 2) * interval in
  (* window = two phases of the feed, like the CLI default: every phase
     slides it, so intervals retire throughout the run *)
  let window = max 1 (2 * span / interval) in
  let clients = 4 and phases = if !quick then 4 else 8 in
  (* above the window's ~11% phase-boundary oscillation, below the ~86%
     workload shift: re-search fires on the shift and only the shift *)
  let drift_threshold = 0.2 in
  let cfg =
    { Serve.interval; window; decay = 0.9; drift_threshold; min_samples = 64;
      queue_capacity = 8; params; program; counts; struct_name = "A";
      selector = Optimizer.Portfolio; seed = 11;
      restarts = (if !quick then 2 else 4) }
  in
  (* Phased feed: each phase shifts the whole base stream forward by a
     whole number of intervals; halfway through, lines rotate to a
     different sharing pattern so the weighted CC drifts. Per-phase batch
     construction fans out over the pool — the "many concurrent clients". *)
  let lines =
    List.sort_uniq compare (List.map (fun (s : Sample.t) -> s.Sample.line) base)
  in
  let line_arr = Array.of_list lines in
  let nl = Array.length line_arr in
  let line_pos = Hashtbl.create nl in
  Array.iteri (fun i l -> Hashtbl.replace line_pos l i) line_arr;
  let base_arr = Array.of_list base in
  let batch_of ~phase ~client =
    let rot = if 2 * phase >= phases then nl / 2 else 0 in
    Array.map
      (fun (s : Sample.t) ->
        let line =
          if rot = 0 then s.Sample.line
          else line_arr.((Hashtbl.find line_pos s.Sample.line + rot) mod nl)
        in
        { s with Sample.itc = s.Sample.itc + (phase * span) + client; line })
      base_arr
  in
  let client_list = List.init clients Fun.id in
  Printf.printf
    "%d clients x %d phases, %d samples/batch, interval %d, window %d\n%!"
    clients phases (Array.length base_arr) interval window;
  let t = Serve.create cfg in
  let submitted = ref [] (* every batch, reverse submission order *) in
  Serve.run t;
  let t0 = Obs.now () in
  for phase = 0 to phases - 1 do
    let batches =
      match pool () with
      | Some p -> Pool.map p (fun c -> batch_of ~phase ~client:c) client_list
      | None -> List.map (fun c -> batch_of ~phase ~client:c) client_list
    in
    List.iter
      (fun b ->
        submitted := b :: !submitted;
        ignore (Serve.submit_wait t b))
      batches
  done;
  Serve.stop t;
  let ingest_wall = Obs.now () -. t0 in
  let n_batches = phases * clients in
  let n_samples = n_batches * Array.length base_arr in
  let rate =
    if ingest_wall > 0.0 then float_of_int n_samples /. ingest_wall else 0.0
  in
  let w = Serve.window t in
  Printf.printf
    "ingested %d samples in %.3fs (%.0f samples/s sustained, re-searches \
     included)\n"
    n_samples ingest_wall rate;
  Printf.printf
    "window: %d live samples in %d intervals; %d retired by subtraction, %d \
     late, %d batches dropped\n%!"
    (Window.live_samples w) (Window.live_intervals w) (Window.retired w)
    (Window.late w) (Serve.dropped_batches t);
  let canon b =
    List.map
      (fun (idx, tbl) ->
        (idx, Sample.total_samples tbl, Sample.line_freqs tbl))
      (Sample.binned_idx b)
  in
  (* Gate 1: the subtraction-maintained window = re-binning from scratch.
     A sample survives in the master iff its interval is inside the final
     window, so the direct bin of exactly those samples must match. *)
  let newest = match Window.newest w with Some n -> n | None -> 0 in
  let direct = Sample.binner ~interval in
  List.iter
    (Array.iter (fun (s : Sample.t) ->
         if Sample.floor_div s.Sample.itc interval > newest - window then
           Sample.feed direct s))
    (List.rev !submitted);
  let rebin_identical = canon (Window.master w) = canon direct in
  Printf.printf "retire-by-subtraction vs re-bin from scratch: %s\n%!"
    (if rebin_identical then "identical" else "MISMATCH");
  (* Gate 2: the workload shift must have triggered a drift re-search. *)
  let pubs = Serve.publications t in
  Printf.printf "\n%-8s %10s %10s %12s %10s\n" "version" "drift" "samples"
    "score" "intervals";
  List.iter
    (fun (p : Serve.publication) ->
      Printf.printf "%-8d %10.4f %10d %12.2f %10d\n" p.Serve.version
        p.Serve.pub_drift p.Serve.window_samples
        p.Serve.best.Optimizer.score p.Serve.window_intervals)
    pubs;
  let drift_triggered =
    List.exists
      (fun (p : Serve.publication) ->
        p.Serve.version > 1 && p.Serve.pub_drift > drift_threshold)
      pubs
  in
  let hist name =
    match Obs.histogram name with
    | Some s -> (s.Obs.count, s.Obs.p50, s.Obs.p99)
    | None -> (0, 0.0, 0.0)
  in
  let i_count, i_p50, i_p99 = hist "serve.ingest_s" in
  let r_count, _, r_p99 = hist "serve.research_s" in
  Printf.printf
    "ingest: %d batches, p50 %.6fs, p99 %.6fs; %d re-searches (p99 %.4fs)\n%!"
    i_count i_p50 i_p99 r_count r_p99;
  { gates =
      [ ("rebin_identical", rebin_identical);
        ("drift_triggered", drift_triggered) ];
    data = Json.Obj
    [
      ("interval", Json.Int interval);
      ("window", Json.Int window);
      ("clients", Json.Int clients);
      ("phases", Json.Int phases);
      ("batches", Json.Int n_batches);
      ("samples", Json.Int n_samples);
      ("samples_per_s", Json.Float rate);
      ("ingest_p50_s", Json.Float i_p50);
      ("ingest_p99_s", Json.Float i_p99);
      ("research_count", Json.Int r_count);
      ("research_p99_s", Json.Float r_p99);
      ("publications", Json.Int (List.length pubs));
      ( "versions",
        Json.List
          (List.map
             (fun (p : Serve.publication) -> Json.Int p.Serve.version)
             pubs) );
      ("live_samples", Json.Int (Window.live_samples w));
      ("live_intervals", Json.Int (Window.live_intervals w));
      ("retired_intervals", Json.Int (Window.retired w));
      ("late_samples", Json.Int (Window.late w));
      ("dropped_batches", Json.Int (Serve.dropped_batches t));
      ("rebin_identical", Json.Bool rebin_identical);
      ("drift_triggered", Json.Bool drift_triggered);
    ] }

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("topology", ungated run_topology);
    ("fig8", ungated run_fig8);
    ("fig10", ungated run_fig10);
    ("fig9", ungated run_fig9);
    ("ccstability", ungated run_cc_stability);
    ("gvl", ungated run_gvl);
    ("accumulation", ungated run_accumulation);
    ("oracle", ungated run_oracle);
    ("userapp", ungated run_userapp);
    ("ablation-k2", ungated run_ablation_k2);
    ("ablation-sampling", ungated run_ablation_sampling);
    ("ablation-clustering", ungated run_ablation_clustering);
    ("ablation-machines", ungated run_ablation_machines);
    ("ablation-protocol", ungated run_ablation_protocol);
    ("layout_search", run_layout_search);
    ("sim_scale", run_sim_scale);
    ("serve", run_serve);
  ]

let run_section (name, f) =
  (* each artifact's metrics are its own section's *)
  Obs.reset ();
  let t0 = Obs.now () in
  let r = f () in
  write_artifact ~section:name ~wall:(Obs.now () -. t0) r;
  match List.filter (fun (_, ok) -> not ok) r.gates with
  | [] ->
    if r.gates <> [] then
      Printf.printf "gates: all %d pass\n%!" (List.length r.gates)
  | failed ->
    List.iter (fun (g, _) -> Printf.eprintf "%s: gate %s failed\n" name g)
      failed;
    exit 1

(* Command line: section names (and the word "quick") as positionals. An
   unknown name or a --jobs outside [1, Pool.max_domains] is a usage
   error: Cmdliner exits 124. *)
let () =
  let open Cmdliner in
  let jobs_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Pool.jobs_of_string s) in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  let choices =
    ("quick", None) :: List.map (fun s -> (fst s, Some s)) sections
  in
  let names =
    Arg.(
      value & pos_all (enum choices) []
      & info [] ~docv:"SECTION" ~doc:"sections to run (default: all)")
  in
  let quick_flag =
    Arg.(value & flag & info [ "quick" ] ~doc:"smaller machines, fewer runs")
  in
  let jobs_arg =
    Arg.(
      value & opt (some jobs_conv) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:"worker domains (default: $(b,SLO_JOBS), else the core count)")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"write the manifest to $(docv), artifacts beside it")
  in
  let run names q j json =
    quick := q || List.exists Option.is_none names;
    Option.iter (fun j -> jobs := j) j;
    json_path := json;
    Printf.printf
      "Structure Layout Optimization for Multithreaded Programs (CGO 2007)\n";
    Printf.printf "benchmark harness%s, %d job%s\n%!"
      (if !quick then " (quick mode)" else "")
      (effective_jobs ())
      (if effective_jobs () = 1 then "" else "s");
    (match List.filter_map Fun.id names with
    | [] -> List.iter run_section sections
    | chosen -> List.iter run_section chosen);
    write_manifest ()
  in
  let term = Term.(const run $ names $ quick_flag $ jobs_arg $ json_arg) in
  exit (Cmd.eval (Cmd.v (Cmd.info "main" ~doc:"benchmark harness") term))
