(* serve-shift: a closed loop of one client with one batch in flight
   against the layout service.

   Set-up precomputes a seeded feed that moves forward through ITC time;
   the seed drives the sample stream, and every phase the hot group of
   struct A's lines rotates, so the
   decay-weighted window CC drifts and the service re-searches. One pass
   replays the feed into a fresh server: per batch, [Serve.submit] then
   [Serve.drain] (the daemon's deterministic per-batch path). Each batch is
   one operation. This loads CC through the window path (absorb, retract
   of retired intervals, merge_scaled), repeated small searches and the
   service's own histograms; no simulator, profile or store load runs. *)

module Kernel = Slo_workload.Kernel
module Collect = Slo_workload.Collect
module Serve = Slo_serve.Serve
module Window = Slo_serve.Window
module Optimizer = Slo_search.Optimizer
module Sample = Slo_concurrency.Sample
module Fmf = Slo_concurrency.Fmf
module Obs = Slo_obs.Obs

let setup_reps = 25
let cpus = 16
let batch_size = 1024
let batches_per_phase = 16
let phases = 12
let params = Collect.calibrated_params

(* ITC steps average 4.5 ticks, so a phase covers about
   batches_per_phase * batch_size * 4.5 / interval intervals. The window
   spans two phases, so intervals retire throughout a pass. *)
let window =
  2 * batches_per_phase * batch_size * 9 / 2 / params.Slo_core.Pipeline.cc_interval

let config ~program ~counts =
  { Serve.interval = params.Slo_core.Pipeline.cc_interval; window; decay = 0.9;
    drift_threshold = 0.4; min_samples = 64; queue_capacity = 2; params;
    program; counts; struct_name = "A"; selector = Optimizer.Portfolio;
    seed = 11; restarts = 4 }

let feed ~seed program =
  let fmf = Fmf.of_program program in
  let hot_lines = Array.of_list (Fmf.lines_accessing fmf ~struct_name:"A") in
  let all_lines =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map
            (fun s -> Fmf.lines_accessing fmf ~struct_name:s)
            Kernel.struct_names))
  in
  let nh = Array.length hot_lines and na = Array.length all_lines in
  let group = max 2 (nh / 3) in
  let state = ref (seed lxor 0x13198A2E03707344) in
  let itc = ref 0 in
  Array.init (phases * batches_per_phase) (fun b ->
      let phase = b / batches_per_phase in
      Array.init batch_size (fun _ ->
          state := (!state * 2685821657736338717) + 1442695040888963407;
          let bits = !state lsr 11 in
          itc := !itc + 1 + (bits land 7);
          let r = bits lsr 3 in
          let line =
            if r land 7 <> 0 then
              hot_lines.(((phase * group) + ((r lsr 3) mod group)) mod nh)
            else all_lines.((r lsr 3) mod na)
          in
          { Sample.cpu = (r lsr 20) mod cpus; itc = !itc; line }))

type batch = { ms : float; published : bool; ok : bool }

type pass_out = {
  batches : batch list;
  pubs : Serve.publication list;
  live_samples : int;
  live_intervals : int;
  retired : int;
  late : int;
  dropped : int;
}

(* The library times window ingest, FLG and search inside [drain]; in a
   traced pass those durations become child spans of the drain span. The
   histograms are read back under a span of their own, since reading one
   sorts it. [last] holds the previous reading of each. *)
let lib_hists =
  [ "serve.ingest_s"; "serve.research_s"; "pipeline.analyze_s"; "pipeline.search_s" ]

let drain_children ~op ~parent ~start ~stop ~published last =
  Span.record ~op "trace.readout" (fun () ->
      let delta name =
        let now = Common.hist_sum name in
        let d = now -. Hashtbl.find last name in
        Hashtbl.replace last name now;
        d
      in
      Span.derived ~op ~parent "concurrency.cc" ~start ~dur:(delta "serve.ingest_s");
      if published then begin
        let r0 = stop -. delta "serve.research_s" in
        let analyze = delta "pipeline.analyze_s" in
        Span.derived ~op ~parent "core.flg" ~start:r0 ~dur:analyze;
        Span.derived ~op ~parent "search.run" ~start:(r0 +. analyze)
          ~dur:(delta "pipeline.search_s")
      end)

let pass ~cfg ~feed ~op_base =
  let t = Serve.create cfg in
  let last = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace last n (Common.hist_sum n)) lib_hists;
  let batches =
    Array.to_list
      (Array.mapi
         (fun i b ->
           let op = op_base + i in
           let v0 = Serve.version t and late0 = Window.late (Serve.window t) in
           let t0 = Span.now () in
           let accepted = Span.record ~op "serve.submit" (fun () -> Serve.submit t b) in
           let parent = ref 0 and d0 = ref 0.0 in
           Span.record ~op "serve.drain" (fun () ->
               parent := Span.open_id ();
               d0 := Span.now ();
               Serve.drain t);
           let t1 = Span.now () in
           let published = Serve.version t > v0 in
           if !Span.enabled then
             drain_children ~op ~parent:!parent ~start:!d0 ~stop:t1 ~published last;
           { ms = (t1 -. t0) *. 1000.0; published;
             ok = accepted = `Accepted && Window.late (Serve.window t) = late0 })
         feed)
  in
  let w = Serve.window t in
  { batches; pubs = Serve.publications t; live_samples = Window.live_samples w;
    live_intervals = Window.live_intervals w; retired = Window.retired w;
    late = Window.late w; dropped = Serve.dropped_batches t }

let digest_of p =
  let b = Buffer.create 4096 in
  List.iter
    (fun (pub : Serve.publication) ->
      Check.add_int b pub.Serve.version;
      Check.add_float b pub.Serve.pub_drift;
      Check.add_float b pub.Serve.best.Optimizer.score;
      Check.add_int b pub.Serve.window_samples)
    p.pubs;
  (match List.rev p.pubs with
  | last :: _ -> Check.add_layout b last.Serve.best.Optimizer.layout
  | [] -> ());
  List.iter (Check.add_int b) [ p.live_samples; p.live_intervals; p.retired; p.late ];
  Check.digest b

let run ~seed ~seconds ~trace =
  let setup_s, (cfg, feed) =
    Common.setup ~reps:setup_reps ~trace (fun () ->
        let program = Common.parse_kernel () in
        let counts = Span.record "profile.run" (fun () -> Collect.profile ()) in
        (config ~program ~counts, feed ~seed program))
  in
  let n_batches = Array.length feed in
  let passes, outs =
    Common.timed_phase ~seconds ~min_passes:3 ~trace (fun i ->
        pass ~cfg ~feed ~op_base:(i * n_batches))
  in
  let peak = Common.peak_heap_mb () in
  let first = List.hd outs in
  let digest, digest_checks = Check.digests ~workload:"serve-shift" ~seed digest_of outs in
  let n_pubs = List.length first.pubs in
  let laws =
    List.for_all
      (fun p ->
        List.for_all
          (fun (pub : Serve.publication) ->
            Check.layout_ok cfg.Serve.program pub.Serve.best.Optimizer.layout
            && pub.Serve.best.Optimizer.score >= pub.Serve.greedy_score)
          p.pubs)
      outs
  in
  let checks =
    ("layout laws, best >= greedy", laws)
    :: ("at least 10 drift re-searches per pass", n_pubs >= 10)
    :: digest_checks
  in
  let all = List.concat_map (fun p -> p.batches) outs in
  let attempted = List.length all in
  let failed =
    if List.for_all snd checks then List.length (List.filter (fun b -> not b.ok) all)
    else attempted
  in
  let walls = List.map (fun (p : Common.pass) -> p.wall) passes in
  let n_passes = List.length walls in
  let rate = float_of_int (n_batches * batch_size) /. Common.median walls in
  let ms = List.map (fun b -> b.ms) all in
  let repub = List.filter_map (fun b -> if b.published then Some b.ms else None) all in
  let p50 = Common.percentile 50.0 ms and p90 = Common.percentile 90.0 ms in
  let native =
    Common.
      [ metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric ~samples:n_passes "feed_s" "s" (Common.median walls);
        metric ~samples:n_passes "ingest_samples_per_s" "1/s" rate;
        metric ~samples:attempted "batch_p50_ms" "ms" p50;
        metric ~samples:attempted "batch_p90_ms" "ms" p90;
        metric ~samples:(List.length repub) "republish_p50_ms" "ms"
          (Common.percentile 50.0 repub);
        metric "peak_heap_mb" "MB" peak ]
  in
  let counts =
    [ ("concurrency.samples", float_of_int (n_batches * batch_size));
      ("concurrency.pairs",
       float_of_int
         (match List.rev first.pubs with
          | last :: _ -> List.length last.Serve.cc_pairs
          | [] -> 0));
      ("serve.batches", float_of_int n_batches);
      ("serve.publications", float_of_int n_pubs);
      ("serve.live_samples", float_of_int first.live_samples);
      ("serve.retired_intervals", float_of_int first.retired);
      ("serve.late_samples", float_of_int first.late);
      ("serve.dropped_batches", float_of_int first.dropped) ]
  in
  { Common.attempted; failed; native; counts; digest; checks; passes;
    extra_layers = [] }
