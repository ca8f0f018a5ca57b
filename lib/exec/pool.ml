module Prng = Slo_util.Prng
module Obs = Slo_obs.Obs

(* Workers block on [work_available]; [map] enqueues one thunk per task and
   then helps drain the queue from the calling thread, so a pool of size n
   spawns only n-1 domains. Each thunk writes into its own slot of a batch-
   local result array; completion is signalled through a batch-local
   mutex/condition pair, so concurrent state never outlives one [map]. *)
type state = {
  q : (unit -> unit) Queue.t;
  m : Mutex.t;
  work_available : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

type t = { domains : int; state : state option; mutable alive : bool }

(* OCaml 5 caps the number of live domains at 128 (the caller's included). *)
let max_domains = 128

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 && n <= max_domains -> Ok n
  | Some _ | None ->
    Error (Printf.sprintf "expected an integer in [1, %d], got %S" max_domains s)

let default_jobs () =
  match Option.map jobs_of_string (Sys.getenv_opt "SLO_JOBS") with
  | Some (Ok n) -> n
  | Some (Error _) | None -> Domain.recommended_domain_count ()

let worker_loop st =
  let rec loop () =
    Mutex.lock st.m;
    while Queue.is_empty st.q && not st.stop do
      Condition.wait st.work_available st.m
    done;
    let job = if Queue.is_empty st.q then None else Some (Queue.pop st.q) in
    Mutex.unlock st.m;
    match job with
    | Some job ->
      job ();
      loop ()
    | None -> (* stop && empty *) ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  if domains > max_domains then invalid_arg "Pool.create: domains > 128";
  if domains = 1 then { domains; state = None; alive = true }
  else begin
    let st =
      {
        q = Queue.create ();
        m = Mutex.create ();
        work_available = Condition.create ();
        stop = false;
        workers = [];
      }
    in
    st.workers <-
      List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop st));
    { domains; state = Some st; alive = true }
  end

let size t = t.domains

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    match t.state with
    | None -> ()
    | Some st ->
      Mutex.lock st.m;
      st.stop <- true;
      Condition.broadcast st.work_available;
      Mutex.unlock st.m;
      List.iter Domain.join st.workers;
      st.workers <- []
  end

let with_pool ?domains f =
  let t = create ~domains:(match domains with Some n -> n | None -> default_jobs ()) in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Close one instrumented batch: totals, then utilization = busy time over
   wall time across all lanes. Metrics are write-only (nothing reads them
   back on this path), so the parallel results stay byte-identical to the
   serial ones with metrics enabled. *)
let record_batch ~domains ~tasks ~busy ~wall =
  Obs.incr ~by:tasks "pool.tasks";
  Obs.incr "pool.batches";
  Obs.set_gauge "pool.domains" (float_of_int domains);
  if wall > 0.0 then begin
    let u = busy /. (wall *. float_of_int domains) in
    Obs.set_gauge "pool.utilization" u;
    Obs.observe "pool.batch.utilization_pct" (100.0 *. u)
  end

let mapi t f xs =
  if not t.alive then invalid_arg "Pool.mapi: pool is shut down";
  match (t.state, xs) with
  | None, _ ->
    let batch_t0 = Obs.now () in
    let busy = ref 0.0 in
    let res =
      List.mapi
        (fun i x ->
          let t0 = Obs.now () in
          let r = f i x in
          let dur = Obs.now () -. t0 in
          busy := !busy +. dur;
          Obs.observe "pool.task.run_s" dur;
          r)
        xs
    in
    record_batch ~domains:1 ~tasks:(List.length xs) ~busy:!busy
      ~wall:(Obs.now () -. batch_t0);
    res
  | _, [] -> []
  | Some st, _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let bm = Mutex.create () in
    let batch_done = Condition.create () in
    let remaining = ref n in
    let busy = ref 0.0 in
    (* first-by-index exception, so the raised error does not depend on
       which worker happened to finish first *)
    let error = ref None in
    let batch_t0 = Obs.now () in
    let task i () =
      let t_start = Obs.now () in
      Obs.observe "pool.task.queue_s" (t_start -. batch_t0);
      let outcome =
        try Ok (f i arr.(i))
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let dur = Obs.now () -. t_start in
      Obs.observe "pool.task.run_s" dur;
      (match outcome with
      | Ok r -> results.(i) <- Some r
      | Error _ -> ());
      Mutex.lock bm;
      busy := !busy +. dur;
      (match outcome with
      | Ok _ -> ()
      | Error (e, bt) -> (
        match !error with
        | Some (j, _, _) when j < i -> ()
        | _ -> error := Some (i, e, bt)));
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock bm
    in
    Mutex.lock st.m;
    for i = 0 to n - 1 do
      Queue.push (task i) st.q
    done;
    Condition.broadcast st.work_available;
    Mutex.unlock st.m;
    (* the calling thread drains the queue too; it may pick up tasks from
       the tail while workers chew on the head *)
    let rec help () =
      Mutex.lock st.m;
      let job = if Queue.is_empty st.q then None else Some (Queue.pop st.q) in
      Mutex.unlock st.m;
      match job with
      | Some job ->
        job ();
        help ()
      | None -> ()
    in
    help ();
    Mutex.lock bm;
    while !remaining > 0 do
      Condition.wait batch_done bm
    done;
    Mutex.unlock bm;
    record_batch ~domains:t.domains ~tasks:n ~busy:!busy
      ~wall:(Obs.now () -. batch_t0);
    (match !error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)

let map t f xs = mapi t (fun _ x -> f x) xs

let map_reduce t ~map:fm ~reduce ~init xs =
  List.fold_left reduce init (map t fm xs)

let map_seeded t ~seed f xs =
  mapi t (fun i x -> f (Prng.derive ~seed ~stream:i) x) xs
