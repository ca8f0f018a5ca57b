(* Tests for the always-on layout service: the sliding-window laws the
   serve daemon rests on (absorb/retract identity, chunking invariance,
   order-independent decay weighting), plus the Serve state machine
   itself (admission control, drift-triggered publication, the daemon
   domain, and snapshot/restore identity). *)

module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency
module Window = Slo_serve.Window
module Serve = Slo_serve.Serve
module Persist = Slo_persist.Persist
module Pipeline = Slo_core.Pipeline
module Optimizer = Slo_search.Optimizer
module Counts = Slo_profile.Counts
module Interp = Slo_profile.Interp
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck

let check_int = Alcotest.(check int)

let s cpu itc line = { Sample.cpu; itc; line }
let to_samples = List.map (fun (c, t, l) -> s c t l)

(* Canonical binner state: (idx, total, sorted histogram) per live
   interval, insensitive to Flat_tab capacity/insertion history
   (line_freqs sorts). Equal canon = equal observable state. *)
let canon b =
  List.map
    (fun (idx, tbl) ->
      (idx, Sample.total_samples tbl, Sample.line_freqs tbl))
    (Sample.binned_idx b)

let feed_all b = List.iter (fun x -> Sample.feed b x)

(* cpu in 0..3, itc spans negatives (floor_div semantics), line 1..6 *)
let gen_stream =
  QCheck2.Gen.(
    list_size (int_bound 80)
      (triple (int_bound 3) (int_range (-300) 300) (int_range 1 6)))

let gen_interval = QCheck2.Gen.int_range 1 30

(* ------------------------------------------------------------------ *)
(* Window laws (QCheck2) *)

let prop_absorb_retract_identity =
  QCheck2.Test.make ~name:"absorb then retract is the identity" ~count:300
    QCheck2.Gen.(triple gen_interval gen_stream gen_stream)
    (fun (interval, xs, ys) ->
      let a = Sample.binner ~interval and b = Sample.binner ~interval in
      feed_all a (to_samples xs);
      feed_all b (to_samples ys);
      let before = canon a and fed_before = Sample.fed a in
      let b_before = canon b in
      Sample.absorb a b;
      Sample.retract a b;
      canon a = before
      && Sample.fed a = fed_before
      && canon b = b_before)

let prop_retract_all_empties =
  QCheck2.Test.make ~name:"retracting everything empties the binner"
    ~count:300
    QCheck2.Gen.(pair gen_interval gen_stream)
    (fun (interval, xs) ->
      let a = Sample.binner ~interval and b = Sample.binner ~interval in
      feed_all a (to_samples xs);
      feed_all b (to_samples xs);
      Sample.retract a b;
      canon a = [] && Sample.fed a = 0)

let prop_retract_failure_leaves_dst_unchanged =
  QCheck2.Test.make
    ~name:"over-retract raises and leaves the target untouched" ~count:300
    QCheck2.Gen.(
      quad gen_interval gen_stream (int_bound 3) (int_range 1 6))
    (fun (interval, xs, cpu, line) ->
      let a = Sample.binner ~interval and b = Sample.binner ~interval in
      feed_all a (to_samples xs);
      feed_all b (to_samples xs);
      (* one extra sample makes some src count exceed dst's *)
      Sample.feed b (s cpu 0 line);
      let before = canon a and fed_before = Sample.fed a in
      (match Sample.retract a b with
      | () -> QCheck2.Test.fail_report "retract should have raised"
      | exception Invalid_argument _ -> ());
      canon a = before && Sample.fed a = fed_before)

(* The window's live state after a (time-ordered) stream equals the
   direct binning of just the samples in the final window — however the
   stream was chunked on the way in. *)
let prop_window_eq_direct_binning =
  QCheck2.Test.make
    ~name:"sliding window = direct binning of the window's samples"
    ~count:300
    QCheck2.Gen.(
      quad gen_interval (int_range 1 5) gen_stream
        (list_size (int_bound 12) (int_range 1 7)))
    (fun (interval, window, xs, chunk_sizes) ->
      let samples =
        List.stable_sort
          (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
          (to_samples xs)
      in
      (* one-at-a-time window *)
      let w1 = Window.create ~interval ~window () in
      List.iter
        (fun (x : Sample.t) ->
          ignore
            (Window.feed w1 ~cpu:x.Sample.cpu ~itc:x.Sample.itc
               ~line:x.Sample.line))
        samples;
      (* same stream cut into arbitrary chunks *)
      let w2 = Window.create ~interval ~window () in
      let rec chunks rest sizes =
        match rest with
        | [] -> ()
        | _ ->
          let n = match sizes with [] -> 3 | n :: _ -> n in
          let rec take k = function
            | x :: tl when k > 0 ->
              let a, b = take (k - 1) tl in
              (x :: a, b)
            | rest -> ([], rest)
          in
          let batch, rest = take n rest in
          List.iter
            (fun (x : Sample.t) ->
              ignore
                (Window.feed w2 ~cpu:x.Sample.cpu ~itc:x.Sample.itc
                   ~line:x.Sample.line))
            batch;
          chunks rest (match sizes with [] -> [] | _ :: tl -> tl)
      in
      chunks samples chunk_sizes;
      (* direct binning of only the samples in the final window *)
      let direct = Sample.binner ~interval in
      (match Window.newest w1 with
      | None -> ()
      | Some max_idx ->
        List.iter
          (fun (x : Sample.t) ->
            if Sample.floor_div x.Sample.itc interval > max_idx - window
            then Sample.feed direct x)
          samples);
      canon (Window.master w1) = canon direct
      && canon (Window.master w2) = canon direct
      && Window.retired w1 = Window.retired w2
      && Window.late w1 = 0
      && Window.late w2 = 0)

let cc_canon cc = List.sort compare (Cc.pairs cc)

(* weighted sums intervals in ascending-idx order; folding them in
   descending order must give the same map (exact fixed-point weights). *)
let prop_decay_weights_order_independent =
  QCheck2.Test.make ~name:"decay-weighted CC is merge-order independent"
    ~count:200
    QCheck2.Gen.(
      quad gen_interval (int_range 1 5) (int_range 0 3) gen_stream)
    (fun (interval, window, decay_i, xs) ->
      let decay = List.nth [ 1.0; 0.9; 0.75; 0.5 ] decay_i in
      let w = Window.create ~decay ~interval ~window () in
      List.iter
        (fun (x : Sample.t) ->
          ignore
            (Window.feed w ~cpu:x.Sample.cpu ~itc:x.Sample.itc
               ~line:x.Sample.line))
        (List.stable_sort
           (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
           (to_samples xs));
      let newest = match Window.newest w with Some n -> n | None -> 0 in
      let manual = Cc.create () in
      List.iter
        (fun (idx, tbl) ->
          let num = Window.weight w ~age:(newest - idx) in
          if num > 0 then
            Cc.merge_scaled manual (Cc.of_interval tbl) ~num
              ~den:Window.weight_den)
        (List.rev (Sample.binned_idx (Window.master w)));
      cc_canon (Window.cc_of_vec (Window.weighted w)) = cc_canon manual)

(* ------------------------------------------------------------------ *)
(* The dense window against the map-based oracle (Cc_ref) *)

let bits = Int64.bits_of_float

(* Feed the stream in chunks, and after each chunk hold the weighted
   vector and the drift from the previous one against the oracle: the
   same pairs, and the drift equal to the bit, in both directions. The
   window grows from empty, so the previous vector is often the one with
   fewer pairs. *)
let prop_window_matches_oracle =
  QCheck2.Test.make
    ~name:"weighted vector and drift = map-based oracle, to the bit" ~count:300
    QCheck2.Gen.(
      quad gen_interval (int_range 1 5) (int_range 0 3)
        (pair
           (list_size (int_bound 120)
              (triple (int_bound 3) (int_range (-300) 300) (int_range 1 9)))
           (int_range 1 9)))
    (fun (interval, window, decay_i, (xs, chunk)) ->
      let decay = List.nth [ 1.0; 0.9; 0.75; 0.3 ] decay_i in
      let w = Window.create ~decay ~interval ~window () in
      let samples =
        List.stable_sort
          (fun (a : Sample.t) b -> compare a.Sample.itc b.Sample.itc)
          (to_samples xs)
      in
      let ok = ref true and prev = ref Window.empty in
      let prev_ref = ref (Cc_ref.create ()) in
      let check () =
        let v = Window.weighted w in
        let newest = Option.value (Window.newest w) ~default:0 in
        let m = Cc_ref.weighted ~decay ~newest (Window.master w) in
        ok :=
          !ok
          && Cc.pairs (Window.cc_of_vec v) = Cc_ref.pairs m
          && bits (Window.drift !prev v) = bits (Cc_ref.drift !prev_ref m)
          && bits (Window.drift v !prev) = bits (Cc_ref.drift m !prev_ref);
        prev := v;
        prev_ref := m
      in
      check ();
      List.iteri
        (fun i (x : Sample.t) ->
          ignore
            (Window.feed w ~cpu:x.Sample.cpu ~itc:x.Sample.itc
               ~line:x.Sample.line);
          if (i + 1) mod chunk = 0 then check ())
        samples;
      check ();
      !ok)

(* Counts up to [max_int] take the drift's mass past 2^53, where float
   summation order matters; lists may be empty on either side. *)
let gen_big_pairs =
  QCheck2.Gen.(
    list_size (int_bound 10)
      (pair
         (pair (int_bound 5) (int_bound 5))
         (frequency
            [
              (3, int_range 1 1000);
              (1, int_range (1 lsl 50) (1 lsl 54));
              (1, int_range (max_int / 2) max_int);
            ])))

let prop_drift_matches_oracle =
  QCheck2.Test.make ~name:"drift = map-based oracle at saturating counts"
    ~count:500
    QCheck2.Gen.(pair gen_big_pairs gen_big_pairs)
    (fun (pa, pb) ->
      let mk ps =
        let cc = Cc.create () and r = Cc_ref.create () in
        List.iter
          (fun ((a, b), v) ->
            Cc.For_tests.add cc a b v;
            Cc_ref.add r a b v)
          ps;
        (Window.vec_of_cc cc, r)
      in
      let va, ra = mk pa and vb, rb = mk pb in
      bits (Window.drift va vb) = bits (Cc_ref.drift ra rb))

let test_drift_edges () =
  let one = Cc.create () and one_ref = Cc_ref.create () in
  Cc.For_tests.add one 1 2 5;
  Cc_ref.add one_ref 1 2 5;
  let v = Window.vec_of_cc one in
  let same name a b ra rb =
    Alcotest.(check int64)
      name
      (bits (Cc_ref.drift ra rb))
      (bits (Window.drift a b))
  in
  let none = Cc_ref.create () in
  same "both empty" Window.empty Window.empty none none;
  same "previous empty" Window.empty v none one_ref;
  same "current empty" v Window.empty one_ref none

(* Hostile lines: every interval samples a fresh set of lines, so line
   ids walk through 10^5 distinct values while the window slides. Pair
   ids of retired intervals are reclaimed, so the window's pair storage
   stays within a constant factor of the pairs its live intervals hold. *)
let test_pair_memory_bounded () =
  let window = 6 and per = 12 in
  let w = Window.create ~decay:0.9 ~interval:100 ~window () in
  let pairs_per_interval = per * (per + 1) / 2 in
  let intervals = 100_000 / per in
  let ok = ref true and peak = ref 0 in
  for i = 0 to intervals - 1 do
    for j = 0 to per - 1 do
      for cpu = 0 to 1 do
        ignore (Window.feed w ~cpu ~itc:((i * 100) + j) ~line:((i * per) + j))
      done
    done;
    ignore (Window.weighted w);
    let live = Window.live_pairs w in
    peak := max !peak live;
    if live > window * pairs_per_interval then ok := false;
    if i >= window && Window.pair_slots w > 4 * live then ok := false
  done;
  Alcotest.(check bool)
    "line ids walked past 10^5" true
    ((intervals - 1) * per >= 99_000);
  check_int "live pairs of a full window" (window * pairs_per_interval) !peak;
  Alcotest.(check bool)
    (Printf.sprintf "pair slots %d within 4x live pairs %d" (Window.pair_slots w)
       (Window.live_pairs w))
    true !ok

(* ------------------------------------------------------------------ *)
(* Window unit tests *)

let test_window_retirement () =
  let w = Window.create ~interval:10 ~window:2 () in
  ignore (Window.feed w ~cpu:0 ~itc:5 ~line:1);
  ignore (Window.feed w ~cpu:1 ~itc:15 ~line:2);
  check_int "two live intervals" 2 (Window.live_intervals w);
  ignore (Window.feed w ~cpu:0 ~itc:25 ~line:3);
  (* idx 2 arrived: idx 0 is at the watermark and retires *)
  check_int "idx 0 retired" 1 (Window.retired w);
  check_int "still two live" 2 (Window.live_intervals w);
  check_int "live samples" 2 (Window.live_samples w);
  (* a sample below the watermark is late: dropped, master untouched *)
  Alcotest.(check bool)
    "late sample rejected" false
    (Window.feed w ~cpu:0 ~itc:3 ~line:1);
  check_int "late counted" 1 (Window.late w);
  check_int "master unchanged by late" 2 (Window.live_samples w)

let test_window_weights () =
  let w = Window.create ~decay:0.5 ~interval:10 ~window:4 () in
  check_int "age 0 is full weight" Window.weight_den (Window.weight w ~age:0);
  check_int "age 1 halves" (Window.weight_den / 2) (Window.weight w ~age:1);
  check_int "age 2 quarters" (Window.weight_den / 4) (Window.weight w ~age:2);
  let flat = Window.create ~interval:10 ~window:4 () in
  check_int "no decay: age 7 still full" Window.weight_den
    (Window.weight flat ~age:7);
  Alcotest.check_raises "negative age" (Invalid_argument "Window.weight: age < 0")
    (fun () -> ignore (Window.weight w ~age:(-1)))

let test_drift_shape () =
  let mk pairs =
    let cc = Cc.create () in
    List.iter (fun ((a, b), v) -> Cc.For_tests.add cc a b v) pairs;
    Window.vec_of_cc cc
  in
  let close = Alcotest.(check (float 1e-9)) in
  close "both empty" 0.0 (Window.drift (mk []) (mk []));
  close "one empty" 1.0 (Window.drift (mk []) (mk [ ((1, 2), 5) ]));
  close "identical" 0.0
    (Window.drift (mk [ ((1, 2), 5) ]) (mk [ ((1, 2), 5) ]));
  (* scale-invariance: doubled counts, same shape *)
  close "pure growth is not drift" 0.0
    (Window.drift
       (mk [ ((1, 2), 5); ((3, 4), 7) ])
       (mk [ ((1, 2), 10); ((3, 4), 14) ]));
  close "disjoint" 1.0
    (Window.drift (mk [ ((1, 2), 5) ]) (mk [ ((3, 4), 5) ]))

(* ------------------------------------------------------------------ *)
(* Serve: admission, drift trigger, daemon, snapshot/restore *)

(* The same inline mini-C fixture test_core uses: enough program to give
   the pipeline real affinity counts to search over. *)
let fixture =
  lazy
    (let src =
       {|
struct S { long a; long b; long c; long d; };
void f(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->a + s->c;
    pause(5);
  }
}
|}
     in
     let p = Typecheck.check (Parser.parse_program ~file:"serve-test" src) in
     let counts = Counts.create () in
     let ctx = Interp.make_ctx p in
     let prng = Slo_util.Prng.create ~seed:1 in
     let inst = Interp.make_instance p ~struct_name:"S" in
     Interp.run ctx ~counts ~prng ~proc:"f"
       [ Interp.Ainst inst; Interp.Aint 10 ];
     (p, counts))

let mk_cfg ?(window = 4) ?(min_samples = 1) ?(queue_capacity = 4)
    ?(drift_threshold = 0.05) () =
  let program, counts = Lazy.force fixture in
  {
    Serve.interval = 10;
    window;
    decay = 1.0;
    drift_threshold;
    min_samples;
    queue_capacity;
    params = Pipeline.default_params;
    program;
    counts;
    struct_name = "S";
    selector = Optimizer.Portfolio;
    seed = 7;
    restarts = 2;
  }

(* cross-CPU samples over two lines in one interval: nonzero CC *)
let batch ~idx ~lines =
  let l1, l2 = lines in
  Array.of_list
    [
      s 0 (idx * 10) l1; s 1 (idx * 10 + 1) l2; s 0 ((idx * 10) + 2) l1;
      s 1 ((idx * 10) + 3) l2; s 2 ((idx * 10) + 4) l1;
    ]

let test_admission_control () =
  let t = Serve.create (mk_cfg ~queue_capacity:1 ~min_samples:1_000_000 ()) in
  Alcotest.(check bool)
    "first accepted" true
    (Serve.submit t (batch ~idx:0 ~lines:(1, 2)) = `Accepted);
  Alcotest.(check bool)
    "queue full drops" true
    (Serve.submit t (batch ~idx:1 ~lines:(1, 2)) = `Dropped);
  check_int "one dropped" 1 (Serve.dropped_batches t);
  check_int "depth one" 1 (Serve.queue_depth t);
  Serve.drain t;
  check_int "drained" 0 (Serve.queue_depth t);
  Alcotest.(check bool)
    "space again" true
    (Serve.submit t (batch ~idx:1 ~lines:(1, 2)) = `Accepted);
  Serve.drain t;
  check_int "both batches fed" 10
    (Window.live_samples (Serve.window t));
  Alcotest.(check (option int))
    "no publication below min_samples" None
    (Option.map (fun (p : Serve.publication) -> p.Serve.version)
       (Serve.current t))

let test_drift_trigger () =
  let t = Serve.create (mk_cfg ~window:8 ()) in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  Serve.drain t;
  check_int "first publication" 1 (Serve.version t);
  (* same sharing shape one interval later: growth, not drift *)
  ignore (Serve.submit t (batch ~idx:1 ~lines:(1, 2)));
  Serve.drain t;
  check_int "same shape does not republish" 1 (Serve.version t);
  (* a different pair of lines moves the CC mass: drift fires *)
  ignore (Serve.submit t (batch ~idx:2 ~lines:(3, 4)));
  Serve.drain t;
  check_int "drift republishes" 2 (Serve.version t);
  let pubs = Serve.publications t in
  check_int "two publications, oldest first" 2 (List.length pubs);
  let p1 = List.hd pubs in
  Alcotest.(check (float 1e-9))
    "first publication sees full drift" 1.0 p1.Serve.pub_drift;
  Alcotest.(check bool)
    "drift of second exceeds threshold" true
    ((List.nth pubs 1).Serve.pub_drift > 0.05)

(* A superseded publication drops its CC map from the history; everything
   else about it stays as it was published. *)
let test_history_drops_superseded_cc () =
  let t = Serve.create (mk_cfg ~window:8 ()) in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  Serve.drain t;
  let p1 = Option.get (Serve.current t) in
  let p2 = Serve.research t in
  ignore (Serve.submit t (batch ~idx:1 ~lines:(3, 4)));
  Serve.drain t;
  let p3 = Serve.research t in
  let published = [ p1; p2; p3 ] in
  List.iter
    (fun (p : Serve.publication) ->
      Alcotest.(check bool) "published with its CC map" true (p.Serve.cc_pairs <> []))
    published;
  let history = Serve.publications t in
  check_int "every publication kept" (Serve.version t) (List.length history);
  Alcotest.(check bool) "at least three" true (List.length history >= 3);
  let newest = List.nth history (List.length history - 1) in
  check_int "newest is the last research" p3.Serve.version newest.Serve.version;
  Alcotest.(check bool) "newest keeps its map" true
    (newest.Serve.cc_pairs = p3.Serve.cc_pairs);
  List.iter
    (fun (h : Serve.publication) ->
      if h.Serve.version <> newest.Serve.version then
        Alcotest.(check bool)
          (Printf.sprintf "v%d map dropped" h.Serve.version)
          true (h.Serve.cc_pairs = []))
    history;
  List.iter
    (fun (p : Serve.publication) ->
      let h =
        List.find (fun (h : Serve.publication) -> h.Serve.version = p.Serve.version) history
      in
      Alcotest.(check bool)
        (Printf.sprintf "v%d drift and score unchanged" p.Serve.version)
        true
        (Int64.bits_of_float h.Serve.pub_drift = Int64.bits_of_float p.Serve.pub_drift
        && Int64.bits_of_float h.Serve.best.Optimizer.score
           = Int64.bits_of_float p.Serve.best.Optimizer.score
        && h.Serve.best.Optimizer.blocks == p.Serve.best.Optimizer.blocks))
    published

let test_daemon_run_stop () =
  let t = Serve.create (mk_cfg ~min_samples:1_000_000 ~queue_capacity:2 ()) in
  Serve.run t;
  for i = 0 to 9 do
    Alcotest.(check bool)
      "submit_wait accepted" true
      (Serve.submit_wait t (batch ~idx:i ~lines:(1, 2)))
  done;
  Serve.stop t;
  (* stop drains the queue before joining: everything was processed *)
  check_int "all batches processed" 0 (Serve.queue_depth t);
  check_int "window holds the tail" (4 * 5)
    (Window.live_samples (Serve.window t));
  check_int "older intervals retired" 6 (Window.retired (Serve.window t));
  Alcotest.(check bool)
    "submissions after stop drop" true
    (Serve.submit t (batch ~idx:10 ~lines:(1, 2)) = `Dropped);
  Alcotest.(check bool)
    "submit_wait after stop refuses" false
    (Serve.submit_wait t (batch ~idx:10 ~lines:(1, 2)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_tmp f =
  let path = Filename.temp_file "slo-serve-test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_snapshot_restore_identity () =
  let cfg = mk_cfg ~window:8 () in
  let t = Serve.create cfg in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  ignore (Serve.submit t (batch ~idx:1 ~lines:(3, 4)));
  Serve.drain t;
  with_tmp (fun p1 ->
      with_tmp (fun p2 ->
          Serve.snapshot t ~path:p1;
          let t' = Serve.restore cfg ~path:p1 in
          check_int "version survives" (Serve.version t) (Serve.version t');
          Alcotest.(check bool)
            "history restarts empty" true
            (Serve.publications t' = []);
          check_int "live samples equal"
            (Window.live_samples (Serve.window t))
            (Window.live_samples (Serve.window t'));
          (* byte-identity: snapshotting the restored server reproduces
             the file exactly (canonical row order) *)
          Serve.snapshot t' ~path:p2;
          Alcotest.(check bool)
            "snapshot round trip is byte-identical" true
            (read_file p1 = read_file p2);
          (* and a forced re-search on both yields the same suggestion *)
          let a = Serve.research t and b = Serve.research t' in
          Alcotest.(check bool)
            "same weighted CC" true
            (a.Serve.cc_pairs = b.Serve.cc_pairs);
          Alcotest.(check (float 1e-12))
            "same score" a.Serve.best.Optimizer.score
            b.Serve.best.Optimizer.score;
          Alcotest.(check bool)
            "same blocks" true
            (a.Serve.best.Optimizer.blocks = b.Serve.best.Optimizer.blocks)))

let test_restore_rejects_mismatch () =
  let cfg = mk_cfg ~window:8 () in
  let t = Serve.create cfg in
  ignore (Serve.submit t (batch ~idx:0 ~lines:(1, 2)));
  Serve.drain t;
  with_tmp (fun p ->
      Serve.snapshot t ~path:p;
      (match Serve.restore (mk_cfg ~window:3 ()) ~path:p with
      | _ -> Alcotest.fail "window mismatch should raise"
      | exception Invalid_argument _ -> ());
      match Serve.restore { cfg with Serve.interval = 20 } ~path:p with
      | _ -> Alcotest.fail "interval mismatch should raise"
      | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Golden pin: a seeded Serve run and a seeded columnar CC, each reduced
   to the values below. They were captured with the map-based CC layer
   that Cc_ref keeps as the oracle, so any change to the CC arithmetic —
   the floor of the fixed-point decay, the same-CPU exclusion,
   saturation, the float order of the drift — shows here as a changed
   value. *)

module Kernel = Slo_workload.Kernel
module Collect = Slo_workload.Collect
module Fmf = Slo_concurrency.Fmf
module Sample_store = Slo_concurrency.Sample_store

let lcg state =
  state := (!state * 2685821657736338717) + 1442695040888963407;
  !state lsr 11

(* Like perfbench's serve-shift feed, at test size: every phase the hot
   group of struct A's lines rotates, so the decay-weighted window drifts
   and the server re-searches. *)
let golden_serve_feed program =
  let fmf = Fmf.of_program program in
  let hot = Array.of_list (Fmf.lines_accessing fmf ~struct_name:"A") in
  let all =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map
            (fun s -> Fmf.lines_accessing fmf ~struct_name:s)
            Kernel.struct_names))
  in
  let nh = Array.length hot and na = Array.length all in
  let group = max 2 (nh / 3) in
  let state = ref 0x5EED and itc = ref 0 in
  List.init 48 (fun b ->
      let phase = b / 8 in
      Array.init 192 (fun _ ->
          let bits = lcg state in
          itc := !itc + 1 + (bits land 7);
          let r = bits lsr 3 in
          let line =
            if r land 3 <> 0 then
              hot.(((phase * group) + ((r lsr 3) mod group)) mod nh)
            else all.((r lsr 3) mod na)
          in
          s ((r lsr 20) mod 8) !itc line))

let golden_serve_run () =
  let program = Kernel.program () in
  let cfg =
    { Serve.interval = 150; window = 7; decay = 0.85; drift_threshold = 0.25;
      min_samples = 64; queue_capacity = 2; params = Collect.calibrated_params;
      program; counts = Collect.profile ~iters:4 (); struct_name = "A";
      selector = Optimizer.Portfolio; seed = 5; restarts = 2 }
  in
  let t = Serve.create cfg in
  let fresh =
    List.filter_map
      (fun b ->
        let v = Serve.version t in
        ignore (Serve.submit t b);
        Serve.drain t;
        if Serve.version t > v then Serve.current t else None)
      (golden_serve_feed program)
  in
  (t, fresh)

(* The server and each publication as it was when fresh. *)
let golden_run = lazy (golden_serve_run ())

let md5 s = Digest.to_hex (Digest.string s)

let render_pairs ps =
  String.concat ""
    (List.map (fun ((a, b), v) -> Printf.sprintf "%d %d %d\n" a b v) ps)

let render_pub (p : Serve.publication) =
  Printf.sprintf "v%d drift=%Lx score=%Lx samples=%d" p.Serve.version
    (Int64.bits_of_float p.Serve.pub_drift)
    (Int64.bits_of_float p.Serve.best.Optimizer.score)
    p.Serve.window_samples

let render_layout (l : Slo_layout.Layout.t) =
  Format.asprintf "%a" Slo_layout.Layout.pp l

(* A store whose counts are skewed (one hot line) over 12 CPUs, with CPUs
   that overlap between lines, in 300-tick intervals. *)
let golden_store () =
  let b = Sample_store.builder () in
  let state = ref 0xC0FFEE and itc = ref 0 in
  for _ = 1 to 30_000 do
    let bits = lcg state in
    itc := !itc + 1 + (bits land 3);
    let r = bits lsr 2 in
    let line = if r land 3 = 0 then 7 else 10 + ((r lsr 2) mod 37) in
    Sample_store.append b ~cpu:((r lsr 9) mod 12) ~itc:!itc ~line
  done;
  Sample_store.build b

let golden_pubs =
  [
    "v1 drift=3ff0000000000000 score=40acd40000000000 samples=192";
    "v2 drift=3fd31782d0b30665 score=40ac040000000000 samples=227";
    "v3 drift=3fd3b45275ceb1ea score=40abf9999999999a samples=218";
    "v4 drift=3fd02f4fccebac12 score=40acd40000000000 samples=218";
    "v5 drift=3fd3962e65bfb1de score=40aae0ccccccccce samples=205";
    "v6 drift=3fd2972ad0678b9b score=40a9d40000000000 samples=199";
    "v7 drift=3fd2ffb47955cc4e score=40ab5d999999999a samples=195";
    "v8 drift=3fd49b2b60372f9f score=40acd40000000000 samples=198";
    "v9 drift=3feccae30c1e40bf score=40ab940000000000 samples=229";
    "v10 drift=3fd440e085299379 score=40ab626666666668 samples=219";
    "v11 drift=3fd78d4f429345ab score=40ab8c0000000000 samples=230";
    "v12 drift=3fd3828db1751df4 score=40ab8c0000000000 samples=215";
    "v13 drift=3fd2320538b83fc9 score=40ab8c0000000000 samples=206";
    "v14 drift=3fd477da6898ce83 score=40ab940000000000 samples=194";
    "v15 drift=3feda104ec5fbe51 score=40aad2cccccccccd samples=229";
    "v16 drift=3fd2b001bcc9e085 score=40abb06666666666 samples=204";
    "v17 drift=3fd0d5fcef9a2641 score=40ab1ecccccccccd samples=220";
    "v18 drift=3fd11e2a42ceb3ca score=40a9c7999999999a samples=224";
    "v19 drift=3fd10dddc5812da2 score=40ab0a0000000000 samples=219";
    "v20 drift=3fd47e3b5bbb614e score=40a96a0000000000 samples=217";
    "v21 drift=3feb9bcdc4acaed7 score=40a9306666666666 samples=240";
    "v22 drift=3fd121ee66ee60f5 score=40ac74cccccccccd samples=227";
    "v23 drift=3fd0b94112a236cf score=40aaa0cccccccccd samples=205";
    "v24 drift=3fd34beba65a127b score=40ab666666666666 samples=212";
    "v25 drift=3fd2845cca9d07c4 score=40acdccccccccccd samples=213";
    "v26 drift=3fd31524d21ed7de score=40abed999999999a samples=213";
    "v27 drift=3feeff6d22749049 score=40aba40000000000 samples=197";
    "v28 drift=3fd4674736eb74c5 score=40abb40000000000 samples=197";
    "v29 drift=3fd181d97f347f36 score=40ab940000000000 samples=229";
    "v30 drift=3fd28de998bd7c88 score=40ab940000000000 samples=205";
    "v31 drift=3fd4057fb4188577 score=40ab940000000000 samples=234";
    "v32 drift=3fd04060f61958db score=40ab940000000000 samples=215";
    "v33 drift=3fd40dd85a435687 score=40ab45999999999a samples=214";
    "v34 drift=3fed8853749979c0 score=40a9973333333333 samples=215";
    "v35 drift=3fd6dbfa64866d76 score=40aae5999999999a samples=190";
    "v36 drift=3fd5977b481729d8 score=40aa646666666667 samples=224";
    "v37 drift=3fd1292861eecfb1 score=40ab7c6666666667 samples=219";
    "v38 drift=3fd4d03e76f0fe18 score=40a8d93333333333 samples=233";
  ]

let golden_last_layout = "71b7afa7e37446f7b234fbca3c7d1269"
let golden_last_pairs = "204bed70701c527635032c0a49da49d8"
let golden_store_pairs = "6d00550e4957e1897b90f88cc7f39409"

let golden_saturated_pairs =
  [
    ((1, 4), 4611686018427387903);
    ((3, 4), 4611686018427387903);
    ((2, 4), 4611686018427372270);
    ((2, 3), 2305843009213700791);
    ((1, 2), 2305843009213696883);
    ((1, 3), 10748);
    ((2, 2), 6840);
  ]

let test_golden_serve () =
  let t, _ = Lazy.force golden_run in
  let pubs = Serve.publications t in
  let last = Option.get (Serve.current t) in
  Alcotest.(check (list string))
    "publications" golden_pubs (List.map render_pub pubs);
  Alcotest.(check string) "last layout" golden_last_layout
    (md5 (render_layout last.Serve.best.Optimizer.layout));
  Alcotest.(check string) "last cc_pairs" golden_last_pairs
    (md5 (render_pairs last.Serve.cc_pairs))

(* Counts near [max_int / 2] on overlapping CPUs: the per-pair sums
   saturate, so the pin also covers the saturating kernel arithmetic. *)
let golden_saturated () =
  let b = Sample.binner ~interval:10 in
  List.iteri
    (fun i (cpu, line) ->
      Sample.feed_n b ~cpu ~itc:0 ~line ~count:((max_int / 2) - (i * 977)))
    [ (0, 1); (1, 1); (2, 1); (0, 2); (3, 2); (1, 3); (2, 3); (3, 3); (4, 4) ];
  Cc.compute_tables (Sample.binned b)

let test_golden_store () =
  let cm = Cc.compute_store ~interval:300 (golden_store ()) in
  Alcotest.(check string) "compute_store pairs" golden_store_pairs
    (md5 (render_pairs (Cc.pairs cm)));
  Alcotest.(check (list (pair (pair int int) int)))
    "saturated pairs" golden_saturated_pairs
    (Cc.pairs (golden_saturated ()))

(* The history reuses the first published copy of a repeated layout:
   equal layouts and block lists are physically shared, and apart from
   the superseded CC maps every publication is as it was published. *)
let test_publications_share_layouts () =
  let t, fresh = Lazy.force golden_run in
  let history = Serve.publications t in
  check_int "one fresh copy per publication" (List.length history)
    (List.length fresh);
  List.iter2
    (fun (h : Serve.publication) (p : Serve.publication) ->
      Alcotest.(check bool)
        (Printf.sprintf "v%d unchanged" p.Serve.version)
        true
        ({ h with Serve.cc_pairs = [] } = { p with Serve.cc_pairs = [] }))
    history fresh;
  let best (p : Serve.publication) = p.Serve.best in
  let repeats = ref 0 in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          let a = best a and b = best b in
          if i < j && a.Optimizer.layout = b.Optimizer.layout
             && a.Optimizer.blocks = b.Optimizer.blocks
          then begin
            incr repeats;
            Alcotest.(check bool) "repeated layout shared" true
              (a.Optimizer.layout == b.Optimizer.layout
              && a.Optimizer.blocks == b.Optimizer.blocks)
          end)
        history)
    history;
  Alcotest.(check bool) "the run repeats a layout" true (!repeats > 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_absorb_retract_identity;
      prop_retract_all_empties;
      prop_retract_failure_leaves_dst_unchanged;
      prop_window_eq_direct_binning;
      prop_decay_weights_order_independent;
      prop_window_matches_oracle;
      prop_drift_matches_oracle;
    ]

let suites =
  [
    ( "serve.window",
      Alcotest.test_case "retirement and lateness" `Quick
        test_window_retirement
      :: Alcotest.test_case "fixed-point weights" `Quick test_window_weights
      :: Alcotest.test_case "shape drift" `Quick test_drift_shape
      :: props
      @ [
          Alcotest.test_case "drift edges = oracle" `Quick test_drift_edges;
          Alcotest.test_case "pair memory bounded under hostile lines" `Quick
            test_pair_memory_bounded;
        ] );
    ( "serve.server",
      [
        Alcotest.test_case "admission control" `Quick test_admission_control;
        Alcotest.test_case "drift-triggered publication" `Quick
          test_drift_trigger;
        Alcotest.test_case "superseded publications drop their CC map"
          `Quick test_history_drops_superseded_cc;
        Alcotest.test_case "daemon run/stop" `Quick test_daemon_run_stop;
        Alcotest.test_case "snapshot/restore identity" `Quick
          test_snapshot_restore_identity;
        Alcotest.test_case "restore rejects mismatched config" `Quick
          test_restore_rejects_mismatch;
      ] );
    ( "serve.golden",
      [
        Alcotest.test_case "seeded serve run" `Quick test_golden_serve;
        Alcotest.test_case "seeded columnar CC" `Quick test_golden_store;
        Alcotest.test_case "publications share equal layouts" `Quick
          test_publications_share_layouts;
      ] );
  ]
