(* In-memory span recorder for the benchmark's own calls into the layers.

   A span is one call into a layer: a name ("sim.machine.run"), start and
   stop on the monotonic clock, the span that was open on the same domain
   when it started (or the one handed to a pool task), the operation it
   belongs to, and the pass of the timed phase it ran in (-1 outside the
   timed phase). Recording is off unless [enabled] is set, so untraced runs
   pay one branch per call. Spans stay in memory and are written once, at
   exit, as Chrome trace-event JSON. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 for a root span *)
  op : int;  (** operation id; 0 when the span is not tied to one *)
  pass : int;
  tid : int;  (** the domain that ran the call *)
  derived : bool;
      (** placed inside its parent from a duration the library recorded
          itself, rather than timed around a call *)
}

let enabled = ref false
let pass = Atomic.make (-1)
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded = ref []
let current = Domain.DLS.new_key (fun () -> 0)

let push s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

let record ?(op = 0) name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    let pass = Atomic.get pass in
    Domain.DLS.set current id;
    let start = now () in
    let finish () =
      let stop = now () in
      Domain.DLS.set current parent;
      push
        { id; name; start; stop; parent; op; pass;
          tid = (Domain.self () :> int); derived = false }
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* [Pool.map] with each task run under the caller's open span, so tasks
   on worker domains still hang off the call that fanned them out. *)
let pool_map pool f xs =
  record "exec.pool.map" (fun () ->
      let parent = Domain.DLS.get current in
      Slo_exec.Pool.map pool
        (fun x ->
          let saved = Domain.DLS.get current in
          Domain.DLS.set current parent;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set current saved)
            (fun () -> f x))
        xs)

(* A child of span [parent], placed at [start] for [dur] seconds: for
   layer work that happens inside one library call and is only visible
   through the duration the library records. *)
let derived ?(op = 0) ~parent name ~start ~dur =
  if !enabled && dur > 0.0 then
    push
      { id = Atomic.fetch_and_add next_id 1; name; start; stop = start +. dur;
        parent; op; pass = Atomic.get pass; tid = (Domain.self () :> int);
        derived = true }

(* The id of the innermost span open on this domain (0 when none). *)
let open_id () = Domain.DLS.get current

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Self time: a span's duration minus the part its children on the same
   domain cover. Children that ran on another domain (pool tasks) overlap
   the parent in wall time without being part of its own thread of work. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then begin
        let prev = try Hashtbl.find child (s.parent, s.tid) with Not_found -> 0.0 in
        Hashtbl.replace child (s.parent, s.tid) (prev +. (s.stop -. s.start))
      end)
    spans;
  List.map
    (fun s ->
      let covered = try Hashtbl.find child (s.id, s.tid) with Not_found -> 0.0 in
      (s, Float.max 0.0 (s.stop -. s.start -. covered)))
    spans

let write_chrome path spans =
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let us x = (x -. t0) *. 1e6 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      let layer =
        match String.rindex_opt s.name '.' with
        | Some k -> String.sub s.name 0 k
        | None -> s.name
      in
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
         \"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
         \"pass\":%d,\"derived\":%b}}"
        (if i = 0 then "" else ",")
        s.name layer (us s.start)
        ((s.stop -. s.start) *. 1e6)
        s.tid s.id s.parent s.op s.pass s.derived)
    spans;
  output_string oc "\n]}\n"
