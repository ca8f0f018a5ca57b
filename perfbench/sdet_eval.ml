(* sdet-eval: the paper's evaluation on superdome-32.

   One pass is the baseline collection (profile, one sampled SDET run on
   16 CPUs, CC, then FLG and the automatic / hotness / incremental layouts
   per struct) followed by every layout configuration x seed as an
   independent [Sdet.run_once], fanned over the pool. Each simulator run
   is one operation. Nearly all the wall time is the simulator
   (interpreter, scheduler, memory kernel); search and persist do no work
   here and CC very little. *)

module Pool = Slo_exec.Pool
module Kernel = Slo_workload.Kernel
module Collect = Slo_workload.Collect
module Sdet = Slo_workload.Sdet
module Experiments = Slo_workload.Experiments
module Machine = Slo_sim.Machine
module Topology = Slo_sim.Topology
module Coherence = Slo_sim.Coherence
module Pipeline = Slo_core.Pipeline
module Flg = Slo_core.Flg
module Sample = Slo_concurrency.Sample
module Layout = Slo_layout.Layout
module Stats = Slo_util.Stats

let setup_reps = 25
let eval_cpus = 32
let eval_seeds = 3
let params = Collect.calibrated_params

(* [Collect.samples]'s collection machine: 16-CPU superdome, 3x reps,
   sampling period 400. *)
let collection_config seed =
  { (Sdet.default_config (Topology.superdome ~cpus:16 ())) with
    Sdet.reps = 90; sample_period = Some 400; seed }

let eval_config () = Sdet.default_config (Topology.superdome ~cpus:eval_cpus ())

type run = {
  wall : float;
  accesses : int;
  makespan : int;
  invocations : int;
  samples : int;
  words : float;
  throughput : float;
}

let sim_run ~op cfg =
  Span.record ~op "sim.machine.run" (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Span.now () in
      let r = Sdet.run_once cfg in
      let wall = Span.now () -. t0 in
      let st = r.Machine.stats in
      ( r,
        { wall; accesses = st.Slo_sim.Sim_stats.loads + st.Slo_sim.Sim_stats.stores;
          makespan = r.Machine.makespan; invocations = r.Machine.invocations;
          samples = List.length r.Machine.samples;
          words = Gc.minor_words () -. w0;
          throughput = Machine.throughput r } ))

type pass_out = {
  layouts : Experiments.layouts list;
  table : Experiments.measurement list;
  runs : run list;  (** collection run first *)
  cc_pairs : int;
  flg_edges : int;
  profile_blocks : int;
  profile_words : float;
  cc_words : float;
}

let analyze ~pool ~program ~seed ~op =
  let counts, profile_words =
    Span.record ~op "profile.run" (fun () ->
        let w0 = Gc.minor_words () in
        let c = Collect.profile () in
        (c, Gc.minor_words () -. w0))
  in
  let result, coll = sim_run ~op (collection_config seed) in
  let samples =
    List.map
      (fun (s : Machine.sample) ->
        { Sample.cpu = s.Machine.s_cpu; itc = s.Machine.s_itc; line = s.Machine.s_line })
      result.Machine.samples
  in
  let cm, cc_words =
    Span.record ~op "concurrency.cc" (fun () ->
        let g0 = (Gc.quick_stat ()).Gc.minor_words in
        let cm = Pipeline.concurrency_map ~pool ~params (fun f -> List.iter f samples) in
        (cm, (Gc.quick_stat ()).Gc.minor_words -. g0))
  in
  let edges = ref 0 in
  let layouts =
    List.map
      (fun struct_name ->
        let flg =
          Span.record ~op "core.flg" (fun () ->
              Pipeline.analyze ~params ~cm ~program ~counts ~samples:[]
                ~struct_name ())
        in
        edges :=
          !edges + List.length (Flg.positive_edges flg)
          + List.length (Flg.negative_edges flg);
        Span.record ~op "core.cluster" (fun () ->
            let baseline = Kernel.baseline_layout struct_name in
            { Experiments.struct_name; baseline;
              automatic = Pipeline.automatic_layout ~params flg;
              hotness = Pipeline.hotness_layout flg;
              incremental = Pipeline.incremental_layout ~params flg ~baseline }))
      Kernel.struct_names
  in
  let blocks =
    Slo_profile.Counts.fold_blocks counts ~init:0 ~f:(fun a _ n -> a + n)
  in
  (layouts, coll, List.length (Slo_concurrency.Code_concurrency.pairs cm),
   !edges, blocks, profile_words, cc_words)

(* Configuration 0 is the hand baseline; then each struct's automatic,
   hotness and incremental layouts — Experiments.measure_machine's set. *)
let configurations layouts =
  [] :: List.concat_map
          (fun (l : Experiments.layouts) ->
            [ [ l.automatic ]; [ l.hotness ]; [ l.incremental ] ])
          layouts

let pass ~pool ~program ~seed ~op_base =
  let layouts, coll, cc_pairs, flg_edges, profile_blocks, profile_words, cc_words =
    analyze ~pool ~program ~seed ~op:op_base
  in
  let cfg = eval_config () in
  let tasks =
    List.concat
      (List.mapi
         (fun ci overrides ->
           List.init eval_seeds (fun k -> (ci, overrides, seed + k)))
         (configurations layouts))
  in
  let runs =
    Span.pool_map pool
      (fun (ci, overrides, s) ->
        let op = op_base + 1 + (ci * eval_seeds) + (s - seed) in
        snd (sim_run ~op { cfg with Sdet.overrides; seed = s }))
      tasks
  in
  (* Sdet.measure: outlier-trimmed mean over the seeds, in seed order. *)
  let tp ci =
    Stats.trimmed_mean
      (List.filteri (fun i _ -> i / eval_seeds = ci) runs
      |> List.map (fun r -> r.throughput))
  in
  let baseline = tp 0 in
  let speedup ci = Stats.speedup_percent ~baseline ~measured:(tp ci) in
  let table =
    List.mapi
      (fun i (l : Experiments.layouts) ->
        { Experiments.m_struct = l.struct_name;
          m_automatic = speedup ((3 * i) + 1);
          m_hotness = speedup ((3 * i) + 2);
          m_incremental = speedup ((3 * i) + 3) })
      layouts
  in
  { layouts; table; runs = coll :: runs; cc_pairs; flg_edges; profile_blocks;
    profile_words; cc_words }

let all_layouts (l : Experiments.layouts) =
  [ l.baseline; l.automatic; l.hotness; l.incremental ]

let digest_of p =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m : Experiments.measurement) ->
      Buffer.add_string b m.m_struct;
      List.iter (Check.add_float b) [ m.m_automatic; m.m_hotness; m.m_incremental ])
    p.table;
  List.iter (fun l -> List.iter (Check.add_layout b) (all_layouts l)) p.layouts;
  Check.digest b

(* mean over structs of the better of automatic and incremental *)
let gain p =
  Common.mean
    (List.map
       (fun (m : Experiments.measurement) -> Float.max m.m_automatic m.m_incremental)
       p.table)

(* The composition above must be the program's own evaluation: same
   layouts and the same table as Experiments.analyze_all plus
   measure_machine, bit for bit. Only meaningful for the default seed,
   where both use seeds 1.. *)
let matches_experiments ~pool p =
  let layouts = Experiments.analyze_all ~pool () in
  let table =
    Experiments.measure_machine ~runs:eval_seeds ~pool
      (Topology.superdome ~cpus:eval_cpus ()) layouts
  in
  List.equal
    (fun (a : Experiments.layouts) (b : Experiments.layouts) ->
      List.equal ( = ) (all_layouts a) (all_layouts b))
    layouts p.layouts
  && table = p.table

(* Memory-kernel share from outside the simulator: record one SDET access
   trace, replay it through a bare Coherence, and compare with an untraced
   run of the same configuration. *)
let kernel_share ~seed =
  let cfg = { (eval_config ()) with Sdet.seed } in
  let t0 = Span.now () in
  ignore (Sdet.run_once cfg);
  let run_s = Span.now () -. t0 in
  let trace = Array.of_list (Sdet.run_once { cfg with Sdet.trace = true }).Machine.trace in
  let coh =
    Coherence.create cfg.Sdet.topology ~line_size:Kernel.line_size
      ~cache_capacity:cfg.Sdet.cache_lines ~protocol:cfg.Sdet.protocol ()
  in
  let t0 = Span.now () in
  Span.record "sim.kernel.replay" (fun () ->
      Array.iter
        (fun (ev : Machine.trace_event) ->
          ignore
            (Coherence.access coh ~cpu:ev.Machine.t_cpu ~addr:ev.Machine.t_addr
               ~size:ev.Machine.t_size ~is_write:ev.Machine.t_is_write))
        trace);
  let replay_s = Span.now () -. t0 in
  let n = float_of_int (Array.length trace) in
  [ ("sim.kernel.replay_s", replay_s);
    ("sim.kernel.accesses_per_s", n /. replay_s);
    ("sim.kernel.share", replay_s /. run_s) ]

let run ~seed ~seconds ~trace =
  let setup_s, (program, pool) =
    Common.setup ~release:(fun (_, p) -> Pool.shutdown p) ~reps:setup_reps ~trace (fun () ->
        let program = Common.parse_kernel () in
        (program, Pool.create ~domains:(Common.domains ())))
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let ops_per_pass = 1 + (eval_seeds * (1 + (3 * List.length Kernel.struct_names))) in
  let passes, outs =
    Common.timed_phase ~seconds ~min_passes:2 ~trace (fun i ->
        pass ~pool ~program ~seed ~op_base:(i * ops_per_pass))
  in
  let peak = Common.peak_heap_mb () in
  let first = List.hd outs in
  let digest, digest_checks = Check.digests ~workload:"sdet-eval" ~seed digest_of outs in
  let laws =
    List.for_all
      (fun p ->
        List.for_all
          (fun l -> List.for_all (Check.layout_ok program) (all_layouts l))
          p.layouts)
      outs
  in
  let checks =
    (("layout laws", laws) :: digest_checks)
    @
    if seed = Check.default_seed then
      [ ("same as Experiments.analyze_all + measure_machine",
         matches_experiments ~pool first) ]
    else []
  in
  (* Each pass stands or falls as a whole: a wrong table fails every run
     behind it. *)
  let failed =
    if List.for_all snd checks then 0 else ops_per_pass * List.length outs
  in
  let all_runs = List.concat_map (fun p -> List.tl p.runs) outs in
  let run_ms = List.map (fun r -> r.wall *. 1000.0) all_runs in
  let walls = List.map (fun (p : Common.pass) -> p.wall) passes in
  let eval_s = Common.median walls in
  let accesses p = List.fold_left (fun a r -> a + r.accesses) 0 p.runs in
  let rate =
    Common.median
      (List.map2 (fun p w -> float_of_int (accesses p) /. w) outs walls)
  in
  let n_runs = List.length all_runs and n_passes = List.length walls in
  let p50 = Common.percentile 50.0 run_ms and p90 = Common.percentile 90.0 run_ms in
  let native =
    Common.
      [ metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric ~samples:n_passes "eval_s" "s" eval_s;
        metric ~samples:n_passes "sim_accesses_per_s" "1/s" rate;
        metric ~samples:n_runs "sim_run_p50_ms" "ms" p50;
        metric ~samples:n_runs "sim_run_p90_ms" "ms" p90;
        metric "layout_gain_pct" "%" (gain first);
        metric "peak_heap_mb" "MB" peak ]
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 first.runs in
  let counts =
    [ ("profile.minor_words", first.profile_words);
      ("profile.block_execs", float_of_int first.profile_blocks);
      ("sim.machine.runs", float_of_int (List.length first.runs));
      ("sim.machine.accesses", sum (fun r -> float_of_int r.accesses));
      ("sim.machine.invocations", sum (fun r -> float_of_int r.invocations));
      ("sim.machine.samples", sum (fun r -> float_of_int r.samples));
      ("sim.machine.minor_words_per_access",
       sum (fun r -> r.words) /. sum (fun r -> float_of_int r.accesses));
      ("sim.machine.makespan_cycles", sum (fun r -> float_of_int r.makespan));
      ("concurrency.samples", float_of_int (List.hd first.runs).samples);
      ("concurrency.pairs", float_of_int first.cc_pairs);
      ("concurrency.minor_words_per_sample",
       first.cc_words /. float_of_int (List.hd first.runs).samples);
      ("core.flg_edges", float_of_int first.flg_edges);
      ("layout_gain_pct", gain first) ]
  in
  let extra_layers = if trace then kernel_share ~seed else [] in
  { Common.attempted = ops_per_pass * List.length outs; failed; native;
    counts; digest; checks; passes; extra_layers }
