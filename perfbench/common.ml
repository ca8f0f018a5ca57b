(* Shared pieces of the three workloads: the metric record, order
   statistics, the setup and timed-phase loops, and what a workload hands
   back to the reporter. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type outcome = {
  attempted : int;
  failed : int;
  native : metric list;  (** end-to-end metrics under this workload's own names *)
  counts : (string * float) list;
      (** per-layer counts of the first pass, by per-layer metric name,
          plus the deterministic layout_gain_pct on sdet-eval *)
  digest : string;  (** digest of the first pass's outputs *)
  checks : (string * bool) list;
  passes : pass list;
  extra_layers : (string * float) list;
      (** per-layer metrics measured outside the timed passes *)
}

and pass = {
  traced : bool;
  wall : float;
  minor_words : float;  (** all domains *)
  major_collections : int;
  pool_tasks : int;  (** tasks run by any pool, from the pool's own counter *)
  pool_busy : float;  (** their summed run time, from the pool's histogram *)
}

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (rank - 1)))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

module Obs = Slo_obs.Obs

let hist_sum name =
  match Obs.histogram name with Some s -> s.Obs.sum | None -> 0.0

let parse_kernel () =
  Span.record "ir.parse" (fun () ->
      Slo_ir.Typecheck.check
        (Slo_ir.Parser.parse_program ~file:"kernel.mc" Slo_workload.Kernel.source))

let domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Run [f] [reps] times as the workload's set-up and report the median
   wall time; the last result is the one the timed phase uses, and
   [release] frees the others (pools must not outlive their repetition).
   Set-up is traced (pass -1) when the run is, so [ir.parse] spans come
   from here. *)
let setup ?(release = ignore) ~reps ~trace f =
  Span.enabled := trace;
  let walls = ref [] and last = ref None in
  for _ = 1 to reps do
    Option.iter release !last;
    let t0 = Span.now () in
    let r = Span.record "setup" f in
    walls := (Span.now () -. t0) :: !walls;
    last := Some r
  done;
  Span.enabled := false;
  (median !walls, Option.get !last)

(* The timed phase: passes of [f] until [seconds] have elapsed and at
   least [min_passes] ran; returns each pass's record and result. With
   [trace], odd passes are traced and even ones are not, so one process
   yields both the per-layer numbers and the tracing overhead. *)
let timed_phase ~seconds ~min_passes ~trace f =
  let min_passes = if trace then max 2 min_passes else min_passes in
  let t0 = Span.now () in
  let rec go i acc =
    if i >= min_passes && Span.now () -. t0 >= seconds then List.split (List.rev acc)
    else begin
      let traced = trace && i mod 2 = 1 in
      let g0 = Gc.quick_stat () in
      let tasks0 = Obs.counter "pool.tasks" and busy0 = hist_sum "pool.task.run_s" in
      Span.enabled := traced;
      Atomic.set Span.pass i;
      let s = Span.now () in
      let out = Span.record "pass" (fun () -> f i) in
      let wall = Span.now () -. s in
      Span.enabled := false;
      Atomic.set Span.pass (-1);
      let g1 = Gc.quick_stat () in
      go (i + 1)
        (( { traced; wall; minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
             major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
             pool_tasks = Obs.counter "pool.tasks" - tasks0;
             pool_busy = hist_sum "pool.task.run_s" -. busy0 },
           out )
        :: acc)
    end
  in
  go 0 []

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let scratch_dir = ".perfbench"

let ensure_scratch () =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755
