(* The repository benchmark: one workload per process.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Prints a readable report, then a `native:` line (the workload's metrics
   under its own names), a `counts:` line (per-layer counts of the first
   pass) and, last, one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. Exits 1 when an output
   check fails. *)

let workloads =
  [ ("sdet-eval", Sdet_eval.run); ("suggest-store", Suggest_store.run);
    ("serve-shift", Serve_shift.run) ]

(* Per-layer metrics of the traced run: name, unit, and where the value
   comes from. Span-derived times are self times per traced pass. *)
type source =
  | Self of string  (** self time of spans with this name, per traced pass *)
  | Setup of string  (** same, over set-up repetitions *)
  | Count of string  (** a workload count of the first pass *)
  | Extra of string  (** measured outside the timed passes *)
  | Native of string  (** one of the workload's end-to-end metrics *)
  | Derived of (lookup -> float)

and lookup = string -> float

let layers =
  [ ("ir.parse_s", "s", Setup "ir.parse");
    ("profile.run_s", "s", Self "profile.run");
    ("profile.minor_words", "words", Count "profile.minor_words");
    ("profile.block_execs", "count", Count "profile.block_execs");
    ("sim.machine.run_s", "s", Self "sim.machine.run");
    ("sim.machine.runs", "count", Count "sim.machine.runs");
    ("sim.machine.accesses", "count", Count "sim.machine.accesses");
    ("sim.machine.invocations", "count", Count "sim.machine.invocations");
    ("sim.machine.samples", "count", Count "sim.machine.samples");
    ("sim.machine.minor_words_per_access", "words",
     Count "sim.machine.minor_words_per_access");
    ("sim.machine.makespan_cycles", "cycles", Count "sim.machine.makespan_cycles");
    ("sim.kernel.replay_s", "s", Extra "sim.kernel.replay_s");
    ("sim.kernel.accesses_per_s", "1/s", Extra "sim.kernel.accesses_per_s");
    ("sim.kernel.share", "ratio", Extra "sim.kernel.share");
    ("concurrency.cc_s", "s", Self "concurrency.cc");
    ("concurrency.samples", "count", Count "concurrency.samples");
    ("concurrency.samples_per_s", "1/s",
     Derived (fun v ->
         let t = v "concurrency.cc_s" in
         if t > 0.0 then v "concurrency.samples" /. t else 0.0));
    ("concurrency.pairs", "count", Count "concurrency.pairs");
    ("concurrency.minor_words_per_sample", "words",
     Count "concurrency.minor_words_per_sample");
    ("persist.load_s", "s", Self "persist.load");
    ("persist.bytes", "bytes", Count "persist.bytes");
    ("core.flg_s", "s", Self "core.flg");
    ("core.flg_edges", "count", Count "core.flg_edges");
    ("core.cluster_s", "s", Self "core.cluster");
    ("search.run_s", "s", Self "search.run");
    ("search.candidates", "count", Count "search.candidates");
    ("search.moves", "count", Count "search.moves");
    ("search.best_over_greedy", "ratio", Count "search.best_over_greedy");
    ("serve.drain_s", "s", Self "serve.drain");
    ("serve.batches", "count", Count "serve.batches");
    ("serve.publications", "count", Count "serve.publications");
    ("serve.live_samples", "count", Count "serve.live_samples");
    ("serve.retired_intervals", "count", Count "serve.retired_intervals");
    ("serve.late_samples", "count", Count "serve.late_samples");
    ("serve.dropped_batches", "count", Count "serve.dropped_batches");
    ("serve.republish_p50_ms", "ms", Native "republish_p50_ms");
    ("exec.pool.tasks", "count", Extra "exec.pool.tasks");
    ("exec.pool.busy_s", "s", Extra "exec.pool.busy_s");
    ("exec.pool.wait_s", "s", Self "exec.pool.map");
    ("exec.pool.utilization", "ratio", Extra "exec.pool.utilization");
    ("obs.hist_observations", "count", Extra "obs.hist_observations");
    ("obs.retained_words", "words", Extra "obs.retained_words");
    ("gc.minor_words", "words", Extra "gc.minor_words");
    ("gc.major_collections", "count", Extra "gc.major_collections");
    ("trace.overhead_pct", "%", Extra "trace.overhead_pct");
    ("trace.coverage_pct", "%", Extra "trace.coverage_pct");
    ("trace.readout_s", "s", Self "trace.readout");
    ("trace.spans", "count", Extra "trace.spans") ]

(* The end-to-end names in BENCHMARK.json are shared by all workloads;
   each workload reports under its own names, mapped here. *)
let shared_names =
  [ ("setup_s", "setup_s"); ("peak_heap_mb", "peak_heap_mb");
    ("eval_s", "pass_s"); ("suggest_s", "pass_s"); ("feed_s", "pass_s");
    ("sim_accesses_per_s", "items_per_s"); ("store_samples_per_s", "items_per_s");
    ("ingest_samples_per_s", "items_per_s");
    ("sim_run_p50_ms", "op_p50_ms"); ("struct_suggest_p50_ms", "op_p50_ms");
    ("batch_p50_ms", "op_p50_ms");
    ("sim_run_p90_ms", "op_p90_ms"); ("struct_suggest_p90_ms", "op_p90_ms");
    ("batch_p90_ms", "op_p90_ms") ]

let end_to_end (o : Common.outcome) =
  List.filter_map
    (fun (m : Common.metric) ->
      Option.map (fun name -> { m with name }) (List.assoc_opt m.name shared_names))
    o.native

let per_pass_mean f passes =
  match passes with [] -> 0.0 | _ -> Common.mean (List.map f passes)

(* Everything the traced run measures about itself: pool, GC and obs
   totals, span coverage of each traced pass, and the overhead of tracing
   against the untraced passes of the same process. *)
let run_totals (o : Common.outcome) spans selfs =
  let traced = List.filter (fun (p : Common.pass) -> p.traced) o.passes in
  let untraced = List.filter (fun (p : Common.pass) -> not p.traced) o.passes in
  let wall ps = Common.median (List.map (fun (p : Common.pass) -> p.wall) ps) in
  let coverage =
    List.filter_map
      (fun ((s : Span.t), self) ->
        if s.name = "pass" then Some (100.0 *. (1.0 -. (self /. (s.stop -. s.start))))
        else None)
      selfs
  in
  let obs_observations =
    List.fold_left
      (fun a (_, (s : Slo_obs.Obs.summary)) -> a + s.count)
      0 (Slo_obs.Obs.histograms ())
  in
  let in_passes = List.filter (fun (s : Span.t) -> s.pass >= 0) spans in
  [ ("exec.pool.tasks", per_pass_mean (fun p -> float_of_int p.Common.pool_tasks) traced);
    ("exec.pool.busy_s", per_pass_mean (fun p -> p.Common.pool_busy) traced);
    ("exec.pool.utilization",
     per_pass_mean
       (fun p -> p.Common.pool_busy /. (float_of_int (Common.domains ()) *. p.Common.wall))
       traced);
    ("obs.hist_observations", float_of_int obs_observations);
    ("obs.retained_words",
     float_of_int (Obj.reachable_words (Obj.repr Slo_obs.Obs.default)));
    ("gc.minor_words", per_pass_mean (fun p -> p.Common.minor_words) traced);
    ("gc.major_collections",
     per_pass_mean (fun p -> float_of_int p.Common.major_collections) traced);
    ("trace.overhead_pct", 100.0 *. ((wall traced /. wall untraced) -. 1.0));
    ("trace.coverage_pct", if coverage = [] then 0.0 else Common.mean coverage);
    ("trace.spans",
     float_of_int (List.length in_passes) /. float_of_int (max 1 (List.length traced))) ]
  @ o.extra_layers

let layer_metrics (o : Common.outcome) =
  let spans = Span.all () in
  let selfs = Span.self_times spans in
  let n_traced =
    float_of_int
      (max 1 (List.length (List.filter (fun (p : Common.pass) -> p.traced) o.passes)))
  in
  let self_sum ~setup name =
    let xs =
      List.filter_map
        (fun ((s : Span.t), self) ->
          if s.name = name && (s.pass < 0) = setup then Some self else None)
        selfs
    in
    if setup then if xs = [] then 0.0 else Common.mean xs
    else List.fold_left ( +. ) 0.0 xs /. n_traced
  in
  let totals = run_totals o spans selfs in
  let find l k = Option.value ~default:0.0 (List.assoc_opt k l) in
  let values = Hashtbl.create 64 in
  List.iter
    (fun (name, _, src) ->
      let v =
        match src with
        | Self n -> self_sum ~setup:false n
        | Setup n -> self_sum ~setup:true n
        | Count n -> find o.counts n
        | Extra n -> find totals n
        | Native n -> (
          match List.find_opt (fun (m : Common.metric) -> m.name = n) o.native with
          | Some m -> m.value
          | None -> 0.0)
        | Derived f -> f (fun k -> try Hashtbl.find values k with Not_found -> 0.0)
      in
      Hashtbl.replace values name v)
    layers;
  ( spans,
    List.map (fun (name, u, _) -> Common.metric name u (Hashtbl.find values name)) layers )

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let metrics_json ?(samples = false) ms =
  String.concat ", "
    (List.map
       (fun (m : Common.metric) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S%s}" m.name (json_num m.value)
           m.unit_
           (if samples then Printf.sprintf ", \"samples\": %d" m.samples else ""))
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Common.metric) ->
      Printf.printf "  %-38s %16.6g %-6s (n=%d)\n" m.name m.value m.unit_ m.samples)
    ms

let main workload seed seconds trace =
  let run =
    match List.assoc_opt workload workloads with
    | Some r -> r
    | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let o = run ~seed ~seconds ~trace in
  let correct = o.failed = 0 && List.for_all snd o.checks in
  Printf.printf "workload %s, seed %d, %d passes, %s\n" workload seed
    (List.length o.passes) (if trace then "traced" else "untraced");
  List.iter
    (fun (name, ok) ->
      Printf.printf "check %-52s %s\n" name (if ok then "ok" else "FAILED"))
    o.checks;
  Printf.printf "digest %s\n" o.digest;
  Printf.printf "pass walls (s): %s\n"
    (String.concat " "
       (List.map (fun (p : Common.pass) -> Printf.sprintf "%.3f" p.wall) o.passes));
  Printf.printf "error_rate %.6g (%d failed of %d attempted)\n"
    (float_of_int o.failed /. float_of_int o.attempted) o.failed o.attempted;
  print_table "end-to-end (this workload's names)" o.native;
  let shown =
    if trace then begin
      let spans, ms = layer_metrics o in
      Common.ensure_scratch ();
      let path =
        Filename.concat Common.scratch_dir
          (Printf.sprintf "trace-%s-%d.json" workload seed)
      in
      Span.write_chrome path spans;
      Printf.printf "span trace: %s (%d spans)\n" path (List.length spans);
      print_table "per layer (per traced pass)" ms;
      ms
    end
    else end_to_end o
  in
  Printf.printf "native: {%s}\n" (metrics_json ~samples:true o.native);
  Printf.printf "counts: {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) o.counts));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed (metrics_json shown);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref Check.default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1, the pinned one)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  main !workload !seed !seconds (!trace = 1)
