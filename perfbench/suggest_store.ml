(* suggest-store: time from a sample store on disk to suggested layouts.

   Set-up writes a seeded slo-samples-bin store over the kernel's
   field-accessing lines. One pass is what `slayout suggest` does with
   files: a sized PBO profile (the Profile.Interp path), the mmap load,
   columnar CC over the pool, then per struct the FLG, the greedy
   clustering and a portfolio search. Each struct's suggestion is one
   operation. No simulator runs here, so CC, persist, profile and search
   carry the pass, and the layers sdet-eval loads are bypassed. *)

module Pool = Slo_exec.Pool
module Kernel = Slo_workload.Kernel
module Collect = Slo_workload.Collect
module Pipeline = Slo_core.Pipeline
module Flg = Slo_core.Flg
module Optimizer = Slo_search.Optimizer
module Persist = Slo_persist.Persist
module Sample_store = Slo_concurrency.Sample_store
module Code_concurrency = Slo_concurrency.Code_concurrency
module Fmf = Slo_concurrency.Fmf

let setup_reps = 5
let n_samples = 2_000_000
let cpus = 16
let profile_iters = 1024
let restarts = 32
let search_seed = 11
let params = Collect.calibrated_params

let field_lines program =
  let fmf = Fmf.of_program program in
  List.sort_uniq compare
    (List.concat_map
       (fun s -> Fmf.lines_accessing fmf ~struct_name:s)
       Kernel.struct_names)

(* Skewed lines: the first eighth of the lines takes 7/8 of the samples.
   CPUs are uniform and the ITC is monotone, like a PMU stream. The seed
   drives the sample stream only, so the work per pass does not depend on
   it. *)
let generate ~seed lines =
  let lines = Array.of_list lines in
  let nl = Array.length lines in
  let hot = max 1 (nl / 8) in
  let b = Sample_store.builder ~capacity:n_samples () in
  let state = ref (seed lxor 0x243F6A8885A308D3) in
  let itc = ref 0 in
  for _ = 1 to n_samples do
    state := (!state * 2685821657736338717) + 1442695040888963407;
    let bits = !state lsr 11 in
    itc := !itc + 1 + (bits land 7);
    let r = bits lsr 3 in
    let line =
      if r land 7 <> 0 then lines.((r lsr 3) mod hot)
      else lines.((r lsr 3) mod nl)
    in
    Sample_store.append b ~cpu:((r lsr 20) mod cpus) ~itc:!itc ~line
  done;
  Sample_store.build b

type suggestion = {
  struct_name : string;
  greedy : Optimizer.result;
  best : Optimizer.result;
  automatic : Slo_layout.Layout.t;
  wall : float;
  edges : int;
  candidates : int;
  moves : int;
}

type pass_out = {
  pairs : ((int * int) * int) list;
  suggestions : suggestion list;
  stored : int;
  cc_words : float;
  profile_blocks : int;
  profile_words : float;
}

let suggest ~pool ~program ~counts ~cm ~op struct_name =
  let t0 = Span.now () in
  let flg =
    Span.record ~op "core.flg" (fun () ->
        Pipeline.analyze ~params ~cm ~program ~counts ~samples:[] ~struct_name ())
  in
  let automatic =
    Span.record ~op "core.cluster" (fun () -> Pipeline.automatic_layout ~params flg)
  in
  let pf =
    Span.record ~op "search.run" (fun () ->
        Pipeline.search ~params ~pool ~seed:search_seed ~restarts
          ~selector:Optimizer.Portfolio flg)
  in
  { struct_name; greedy = pf.Optimizer.greedy; best = pf.Optimizer.best;
    automatic; wall = Span.now () -. t0;
    edges = List.length (Flg.positive_edges flg) + List.length (Flg.negative_edges flg);
    candidates = List.length pf.Optimizer.scoreboard;
    moves = List.fold_left (fun a (r : Optimizer.result) -> a + r.Optimizer.moves) 0
        pf.Optimizer.scoreboard }

let pass ~pool ~program ~path ~op_base =
  let counts, profile_words =
    Span.record "profile.run" (fun () ->
        let w0 = Gc.minor_words () in
        let c = Collect.profile ~iters:profile_iters () in
        (c, Gc.minor_words () -. w0))
  in
  let store = Span.record "persist.load" (fun () -> Persist.load_samples_bin ~path) in
  let cm, cc_words =
    Span.record "concurrency.cc" (fun () ->
        let g0 = (Gc.quick_stat ()).Gc.minor_words in
        let cm = Pipeline.concurrency_map_store ~pool ~params store in
        (cm, (Gc.quick_stat ()).Gc.minor_words -. g0))
  in
  let suggestions =
    List.mapi
      (fun i s -> suggest ~pool ~program ~counts ~cm ~op:(op_base + i) s)
      Kernel.struct_names
  in
  { pairs = Code_concurrency.pairs cm; suggestions;
    stored = Sample_store.length store; cc_words;
    profile_blocks =
      Slo_profile.Counts.fold_blocks counts ~init:0 ~f:(fun a _ n -> a + n);
    profile_words }

let digest_of p =
  let b = Buffer.create 4096 in
  List.iter (fun ((l1, l2), v) -> Printf.bprintf b "%d %d %d\n" l1 l2 v) p.pairs;
  List.iter
    (fun s ->
      Check.add_float b s.best.Optimizer.score;
      Check.add_layout b s.best.Optimizer.layout)
    p.suggestions;
  Check.digest b

let run ~seed ~seconds ~trace =
  Common.ensure_scratch ();
  let path =
    Filename.concat Common.scratch_dir (Printf.sprintf "suggest-store-%d.bin" seed)
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let setup_s, (program, pool) =
    Common.setup ~release:(fun (_, p) -> Pool.shutdown p) ~reps:setup_reps ~trace (fun () ->
        let program = Common.parse_kernel () in
        let store = generate ~seed (field_lines program) in
        Persist.save_samples_bin ~path store;
        (program, Pool.create ~domains:(Common.domains ())))
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n_structs = List.length Kernel.struct_names in
  let passes, outs =
    Common.timed_phase ~seconds ~min_passes:3 ~trace (fun i ->
        pass ~pool ~program ~path ~op_base:(i * n_structs))
  in
  let peak = Common.peak_heap_mb () in
  let first = List.hd outs in
  let digest, digest_checks =
    Check.digests ~workload:"suggest-store" ~seed digest_of outs
  in
  let laws =
    List.for_all
      (fun p ->
        p.stored = n_samples
        && List.for_all
             (fun s ->
               Check.layout_ok program s.best.Optimizer.layout
               && Check.layout_ok program s.automatic
               && s.best.Optimizer.score >= s.greedy.Optimizer.score)
             p.suggestions)
      outs
  in
  let checks = ("layout laws, best >= greedy", laws) :: digest_checks in
  let attempted = n_structs * List.length outs in
  let failed = if List.for_all snd checks then 0 else attempted in
  let walls = List.map (fun (p : Common.pass) -> p.wall) passes in
  let suggest_s = Common.median walls in
  let op_ms =
    List.concat_map (fun p -> List.map (fun s -> s.wall *. 1000.0) p.suggestions) outs
  in
  let n_passes = List.length walls and n_ops = List.length op_ms in
  let rate = float_of_int n_samples /. suggest_s in
  let p50 = Common.percentile 50.0 op_ms and p90 = Common.percentile 90.0 op_ms in
  let native =
    Common.
      [ metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric ~samples:n_passes "suggest_s" "s" suggest_s;
        metric ~samples:n_passes "store_samples_per_s" "1/s" rate;
        metric ~samples:n_ops "struct_suggest_p50_ms" "ms" p50;
        metric ~samples:n_ops "struct_suggest_p90_ms" "ms" p90;
        metric "peak_heap_mb" "MB" peak ]
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 first.suggestions in
  let counts =
    [ ("profile.minor_words", first.profile_words);
      ("profile.block_execs", float_of_int first.profile_blocks);
      ("concurrency.samples", float_of_int first.stored);
      ("concurrency.pairs", float_of_int (List.length first.pairs));
      ("concurrency.minor_words_per_sample", first.cc_words /. float_of_int first.stored);
      ("persist.bytes",
       float_of_int (Persist.samples_bin_header_size + (16 * first.stored)));
      ("core.flg_edges", float_of_int (sum (fun s -> s.edges)));
      ("search.candidates", float_of_int (sum (fun s -> s.candidates)));
      ("search.moves", float_of_int (sum (fun s -> s.moves)));
      ("search.best_over_greedy",
       float_of_int
         (sum (fun s -> if s.best.Optimizer.score > s.greedy.Optimizer.score then 1 else 0))
       /. float_of_int n_structs) ]
  in
  { Common.attempted; failed; native; counts; digest; checks; passes;
    extra_layers = [] }
