(* Exhaustive small-config model checker for the coherence kernel.

   The protocol exists twice: the kernel (coherence.ml) and its spec
   (coherence_spec.ml), whose directory is derived from the cache states
   instead of stored. The explorer is plain breadth-first search over the
   spec's canonical packed states. Spec states are persistent, so every
   node keeps its own and steps it without copying. Each edge replays the
   (minimal, BFS-tree) witness prefix on a fresh kernel and demands that
   latency, per-CPU statistics, cache states, directory view, classifier
   hints and touched bits all agree with the spec. Witness replay per edge
   is quadratic in depth, but the accepted configs are tiny (<= 62 bits of
   state) so whole suites run in well under a second each. *)

module Flat_tab = Slo_util.Flat_tab
module Spec = Coherence_spec

type topo_kind = Bus | Superdome

type config = {
  mc_protocol : Coherence.protocol;
  mc_topo : topo_kind;
  mc_cpus : int;
  mc_lines : int;
  mc_capacity : int;
  mc_ways : int;
  mc_offsets : int list;
  mc_line_size : int;
}

let config ?(protocol = Coherence.Mesi) ?(topo = Bus) ?(cpus = 2) ?(lines = 2)
    ?(capacity = 2) ?(ways = 2) ?(offsets = [ 0; 8 ]) ?(line_size = 128) () =
  {
    mc_protocol = protocol;
    mc_topo = topo;
    mc_cpus = cpus;
    mc_lines = lines;
    mc_capacity = capacity;
    mc_ways = ways;
    mc_offsets = offsets;
    mc_line_size = line_size;
  }

let config_name c =
  Printf.sprintf "%s/%s/k%d/m%d/c%dw%d"
    (match c.mc_protocol with Coherence.Mesi -> "mesi" | Coherence.Moesi -> "moesi")
    (match c.mc_topo with Bus -> "bus" | Superdome -> "sdome")
    c.mc_cpus c.mc_lines c.mc_capacity c.mc_ways

type step = { v_cpu : int; v_line : int; v_off : int; v_write : bool }

exception Violation of { vmsg : string; vtrace : step list }

type mutation = Spec.mutation = Read_keeps_modified | Skip_last_invalidation

type report = {
  r_states : int;
  r_transitions : int;
  r_max_depth : int;
  r_max_frontier : int;
  r_oracle_traces : int;
}

(* Every model access is [acc_size] bytes; with offsets 8 bytes apart two
   accesses overlap iff they share an offset, giving a clean true/false
   sharing split. *)
let acc_size = 8

let make_topo cfg =
  match cfg.mc_topo with
  | Bus -> Topology.bus ~cpus:cfg.mc_cpus ()
  | Superdome -> Topology.superdome ~cpus:cfg.mc_cpus ()

let make_spec ?mutate cfg =
  Spec.create (make_topo cfg) ~line_size:cfg.mc_line_size
    ~cache_capacity:cfg.mc_capacity ~ways:cfg.mc_ways ~protocol:cfg.mc_protocol
    ?mutate ()

let addr_of cfg s = (s.v_line * cfg.mc_line_size) + s.v_off

let spec_step cfg sp s =
  Spec.access sp ~cpu:s.v_cpu ~addr:(addr_of cfg s) ~size:acc_size
    ~is_write:s.v_write

(* The spec's protocol invariants, then the write postcondition for the
   step [last] that produced the state: the writer ends as the sole
   holder, in M (no stale copy survives an invalidating write). *)
let spec_check sp ~last =
  match (Spec.violation sp, last) with
  | (Some _ as v), _ -> v
  | None, Some { v_cpu; v_line; v_write = true; _ } ->
    if Spec.cache_state sp ~cpu:v_cpu ~line:v_line <> Some Coherence.Modified then
      Some (Printf.sprintf "after write: cpu %d does not hold line %d in M" v_cpu v_line)
    else if Spec.holders sp ~line:v_line <> [ v_cpu ] then
      Some
        (Printf.sprintf "after write by cpu %d: stale copy of line %d" v_cpu v_line)
    else None
  | None, _ -> None

(* ---------- canonical packing ---------- *)

let off_index cfg off =
  let rec go i = function
    | [] -> invalid_arg "Modelcheck: unknown offset"
    | o :: _ when o = off -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 cfg.mc_offsets

let state_code = function
  | None -> 0
  | Some Coherence.Modified -> 1
  | Some Coherence.Owned -> 2
  | Some Coherence.Exclusive -> 3
  | Some Coherence.Shared -> 4

(* 5 bits per (cpu, line): 3 for the state code, 2 for the pending-hint
   code (0 = none, 1 + offset index otherwise); then 1 bit per line for
   touched. Config validation keeps the total <= 62 bits. LRU order is
   left out: validation also makes it unobservable. *)
let pack cfg sp =
  let acc = ref 0 in
  for cpu = 0 to cfg.mc_cpus - 1 do
    for line = 0 to cfg.mc_lines - 1 do
      let hc =
        match Spec.inv_hint sp ~cpu ~line with
        | None -> 0
        | Some (off, _) -> 1 + off_index cfg off
      in
      acc :=
        (!acc lsl 5) lor (state_code (Spec.cache_state sp ~cpu ~line) lsl 2) lor hc
    done
  done;
  for line = 0 to cfg.mc_lines - 1 do
    acc := (!acc lsl 1) lor if Spec.touched sp ~line then 1 else 0
  done;
  !acc

(* ---------- config validation ---------- *)

let evict_free cfg =
  let nsets = cfg.mc_capacity / cfg.mc_ways in
  let ok = ref true in
  for s = 0 to nsets - 1 do
    let n = ref 0 in
    for l = 0 to cfg.mc_lines - 1 do
      if l mod nsets = s then incr n
    done;
    if !n > cfg.mc_ways then ok := false
  done;
  !ok

let validate cfg =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  if cfg.mc_cpus < 2 then fail "Modelcheck: need >= 2 CPUs";
  if cfg.mc_lines < 1 then fail "Modelcheck: need >= 1 line";
  (* the cache geometry: the check the kernel and the spec share *)
  ignore (make_spec cfg : Spec.t);
  if cfg.mc_offsets = [] then fail "Modelcheck: no offsets";
  if List.length (List.sort_uniq compare cfg.mc_offsets)
     <> List.length cfg.mc_offsets
  then fail "Modelcheck: duplicate offsets";
  if List.length cfg.mc_offsets > 3 then
    fail "Modelcheck: at most 3 offsets (2-bit hint code)";
  List.iter
    (fun o ->
      if o < 0 || o + acc_size > cfg.mc_line_size then
        fail "Modelcheck: offset %d out of line" o)
    cfg.mc_offsets;
  if (not (evict_free cfg)) && cfg.mc_ways <> 1 then
    fail
      "Modelcheck: geometry makes LRU choice observable (need ways = 1 or \
       an eviction-free cache)";
  let bits = (cfg.mc_cpus * cfg.mc_lines * 5) + cfg.mc_lines in
  if bits > 62 then fail "Modelcheck: %d bits of packed state (max 62)" bits

(* ---------- trace replay (spec only; drives shrinking and tests) ---------- *)

let spec_violation ?mutate cfg trace =
  validate cfg;
  let rec go sp = function
    | [] -> None
    | s :: tl -> (
      let sp, _ = spec_step cfg sp s in
      match spec_check sp ~last:(Some s) with
      | Some _ as v -> v
      | None -> go sp tl)
  in
  go (make_spec ?mutate cfg) trace

(* Greedy 1-minimal shrinking: repeatedly drop any single step whose
   removal preserves the violation, until no single removal does. *)
let shrink ~still_fails trace =
  let rec pass tr =
    let n = List.length tr in
    let rec try_at i =
      if i >= n then tr
      else
        let cand = List.filteri (fun j _ -> j <> i) tr in
        if still_fails cand then pass cand else try_at (i + 1)
    in
    try_at 0
  in
  pass trace

(* ---------- kernel conformance ---------- *)

(* Replay [trace] on a fresh kernel and compare its end state with the
   spec state [sp] the trace reaches, and its last latency with [lat],
   the spec's charge for that transition (-1: the initial state). *)
let conform cfg trace sp lat =
  let k =
    Coherence.create (make_topo cfg) ~line_size:cfg.mc_line_size
      ~cache_capacity:cfg.mc_capacity ~ways:cfg.mc_ways
      ~protocol:cfg.mc_protocol ()
  in
  let last =
    List.fold_left
      (fun _ s ->
        Coherence.access k ~cpu:s.v_cpu ~addr:(addr_of cfg s) ~size:acc_size
          ~is_write:s.v_write)
      (-1) trace
  in
  if last <> lat then
    Some
      (Printf.sprintf "kernel: latency %d, spec charged %d for this transition"
         last lat)
  else
    match Coherence.check_invariants k with
    | exception Invalid_argument m -> Some ("kernel: " ^ m)
    | () ->
      Option.map
        (fun m -> "kernel: " ^ m)
        (Spec.mismatch sp k ~lines:(List.init cfg.mc_lines Fun.id))

(* Replay a whole trace doing spec + conformance checks at every step —
   the predicate the shrinker uses for conformance violations, so the
   minimized witness still demonstrates a real disagreement. *)
let trace_violation cfg trace =
  let rec go sp done_rev = function
    | [] -> None
    | s :: tl -> (
      let sp, lat = spec_step cfg sp s in
      let done_rev = s :: done_rev in
      match spec_check sp ~last:(Some s) with
      | Some _ as v -> v
      | None -> (
        match conform cfg (List.rev done_rev) sp lat with
        | Some _ as v -> v
        | None -> go sp done_rev tl))
  in
  go (make_spec cfg) [] trace

(* ---------- the oracle cross-check ---------- *)

let oracle_agrees cfg trace sp =
  let resolve addr =
    Some
      ( "MC",
        0,
        Printf.sprintf "f%d_%d" (addr / cfg.mc_line_size)
          (addr mod cfg.mc_line_size),
        0 )
  in
  let events =
    List.mapi
      (fun i s ->
        {
          Machine.t_cpu = s.v_cpu;
          t_itc = i;
          t_addr = addr_of cfg s;
          t_size = acc_size;
          t_is_write = s.v_write;
        })
      trace
  in
  let o = Trace_oracle.analyze ~resolve ~line_size:cfg.mc_line_size events in
  let st = Spec.total_stats sp in
  let want_t = st.Sim_stats.true_sharing_misses
  and want_f = st.Sim_stats.false_sharing_misses in
  let got_t = Trace_oracle.total_true_sharing o
  and got_f = Trace_oracle.total_false_sharing o in
  if got_t <> want_t || got_f <> want_f then
    Some
      (Printf.sprintf
         "trace oracle: true/false sharing %d/%d, coherence classifier %d/%d"
         got_t got_f want_t want_f)
  else None

(* ---------- exploration ---------- *)

type node = { n_parent : int; n_action : int; n_depth : int; n_spec : Spec.t }

let run ?mutate ?(max_states = 200_000) cfg =
  validate cfg;
  let noffs = List.length cfg.mc_offsets in
  let offs = Array.of_list cfg.mc_offsets in
  let nact = cfg.mc_cpus * cfg.mc_lines * noffs * 2 in
  let actions =
    Array.init nact (fun i ->
        let w = i land 1 in
        let i = i lsr 1 in
        let oi = i mod noffs in
        let i = i / noffs in
        let line = i mod cfg.mc_lines in
        let cpu = i / cfg.mc_lines in
        { v_cpu = cpu; v_line = line; v_off = offs.(oi); v_write = w = 1 })
  in
  let check_kernel = mutate = None in
  let oracle_on = check_kernel && evict_free cfg in
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 1024 in
  let visited = Flat_tab.create ~capacity:1024 () in
  let queue = Queue.create () in
  let nstates = ref 0 in
  let max_depth = ref 0 in
  let max_frontier = ref 0 in
  let oracle_traces = ref 0 in
  let prefix_of id =
    let rec go id acc =
      if id = 0 then acc
      else
        let n = Hashtbl.find nodes id in
        go n.n_parent (actions.(n.n_action) :: acc)
    in
    go id []
  in
  let violate id action msg =
    let trace = prefix_of id @ match action with None -> [] | Some a -> [ a ] in
    let still_fails tr =
      match mutate with
      | Some _ -> spec_violation ?mutate cfg tr <> None
      | None -> trace_violation cfg tr <> None
    in
    let trace = if still_fails trace then shrink ~still_fails trace else trace in
    raise (Violation { vmsg = msg; vtrace = trace })
  in
  let add_state parent action sp =
    let key = pack cfg sp in
    if Flat_tab.find visited key ~default:(-1) < 0 then begin
      let id = !nstates in
      incr nstates;
      if !nstates > max_states then
        invalid_arg "Modelcheck.run: max_states exceeded";
      Flat_tab.set visited key id;
      let depth =
        if id = 0 then 0 else (Hashtbl.find nodes parent).n_depth + 1
      in
      Hashtbl.replace nodes id
        { n_parent = parent; n_action = action; n_depth = depth; n_spec = sp };
      if depth > !max_depth then max_depth := depth;
      Queue.add id queue;
      let q = Queue.length queue in
      if q > !max_frontier then max_frontier := q
    end
  in
  let transitions = ref 0 in
  let initial = make_spec ?mutate cfg in
  add_state (-1) (-1) initial;
  (* The initial state: nothing cached, nothing touched — still worth one
     conformance pass so a kernel with dirty create-time state fails. *)
  (if check_kernel then
     match conform cfg [] initial (-1) with
     | Some msg -> violate 0 None msg
     | None -> ());
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let n = Hashtbl.find nodes id in
    let prefix = prefix_of id in
    (if oracle_on && id > 0 then begin
       incr oracle_traces;
       match oracle_agrees cfg prefix n.n_spec with
       | Some msg -> violate id None msg
       | None -> ()
     end);
    for a = 0 to nact - 1 do
      incr transitions;
      let sp, lat = spec_step cfg n.n_spec actions.(a) in
      (match spec_check sp ~last:(Some actions.(a)) with
      | Some msg -> violate id (Some actions.(a)) msg
      | None -> ());
      (if check_kernel then
         match conform cfg (prefix @ [ actions.(a) ]) sp lat with
         | Some msg -> violate id (Some actions.(a)) msg
         | None -> ());
      add_state id a sp
    done
  done;
  let module Obs = Slo_obs.Obs in
  Obs.incr "sim.mc.runs";
  Obs.incr ~by:!nstates "sim.mc.states";
  Obs.incr ~by:!transitions "sim.mc.transitions";
  Obs.set_gauge "sim.mc.depth" (float_of_int !max_depth);
  Obs.set_gauge "sim.mc.max_frontier" (float_of_int !max_frontier);
  {
    r_states = !nstates;
    r_transitions = !transitions;
    r_max_depth = !max_depth;
    r_max_frontier = !max_frontier;
    r_oracle_traces = !oracle_traces;
  }

(* ---------- the pinned suite ---------- *)

(* Exact reachable-state counts per configuration, measured once and pinned:
   a protocol change that alters the reachable set shows up as a count
   drift here even if it violates no invariant. *)
let standard_suite =
  [
    (* eviction-free, fully associative: lines evolve independently (the
       counts are perfect squares of the per-line state count) *)
    (config ~protocol:Coherence.Mesi ~topo:Bus (), 100);
    (config ~protocol:Coherence.Moesi ~topo:Bus (), 144);
    (* same protocol state space, hierarchical latency model *)
    (config ~protocol:Coherence.Mesi ~topo:Superdome ~ways:1 (), 100);
    (config ~protocol:Coherence.Moesi ~topo:Superdome ~ways:1 (), 144);
    (* three-CPU sharer sets on one line *)
    (config ~protocol:Coherence.Mesi ~cpus:3 ~lines:1 ~capacity:1 ~ways:1 (), 41);
    (config ~protocol:Coherence.Moesi ~cpus:3 ~lines:1 ~capacity:1 ~ways:1 (), 56);
    (* capacity 1: every second line fetch evicts — exercises writeback on
       eviction, directory-entry death and hint dropping *)
    (config ~protocol:Coherence.Mesi ~capacity:1 ~ways:1 (), 69);
    (config ~protocol:Coherence.Moesi ~capacity:1 ~ways:1 (), 85);
  ]
