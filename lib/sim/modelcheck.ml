(* Exhaustive small-config model checker for the coherence kernel.

   Three implementations of the protocol exist once this module is in the
   picture: the flat kernel (memkern.ml), the boxed reference
   (coherence.ml's Ref) — and the pure spec below, a third transcription
   over plain int arrays with the directory *derived* from the cache-state
   vector instead of stored. Deriving the directory makes several protocol
   invariants true by construction in the spec, so any backend whose
   directory drifts from its caches shows up as an introspection mismatch
   rather than being silently mirrored.

   The explorer is plain breadth-first search over canonical packed states;
   each edge replays the (minimal, BFS-tree) witness prefix on both real
   backends from scratch and demands latency, per-CPU statistics, cache
   states, directory view, classifier hints and touched bits all agree
   with the spec. Witness replay per edge is quadratic in depth, but the
   accepted configs are tiny (<= 62 bits of state) so whole suites run in
   well under a second each. *)

module Flat_tab = Slo_util.Flat_tab

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

type mutation = Read_keeps_modified | Skip_last_invalidation

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

(* ---------- the pure spec ---------- *)

(* Cache-state codes; 0 must be Invalid so fresh arrays start empty. *)
let ci = 0

let cm = 1

let co = 2

let ce = 3

let cs = 4

type spec = {
  sc : int array;  (* cpu * m + line -> state code *)
  sh : int array;  (* cpu * m + line -> packed hint off*(lsize+1)+len, or -1 *)
  sto : bool array;  (* line -> ever touched *)
  sst : Sim_stats.t array;
}

let spec_create cfg =
  let n = cfg.mc_cpus * cfg.mc_lines in
  {
    sc = Array.make n ci;
    sh = Array.make n (-1);
    sto = Array.make cfg.mc_lines false;
    sst = Array.init cfg.mc_cpus (fun _ -> Sim_stats.create ());
  }

let copy_stats (s : Sim_stats.t) =
  let c = Sim_stats.create () in
  Sim_stats.add_into c s;
  c

let spec_copy sp =
  {
    sc = Array.copy sp.sc;
    sh = Array.copy sp.sh;
    sto = Array.copy sp.sto;
    sst = Array.map copy_stats sp.sst;
  }

let idx cfg cpu line = (cpu * cfg.mc_lines) + line

let owner_of cfg sp line =
  let o = ref (-1) in
  for cpu = 0 to cfg.mc_cpus - 1 do
    let c = sp.sc.(idx cfg cpu line) in
    if c = cm || c = co || c = ce then o := cpu
  done;
  !o

let sharers_of cfg sp line =
  let acc = ref [] in
  for cpu = cfg.mc_cpus - 1 downto 0 do
    if sp.sc.(idx cfg cpu line) = cs then acc := cpu :: !acc
  done;
  !acc

let holders_of cfg sp line =
  let acc = ref [] in
  for cpu = cfg.mc_cpus - 1 downto 0 do
    if sp.sc.(idx cfg cpu line) <> ci then acc := cpu :: !acc
  done;
  !acc

let spec_wb sp cpu =
  sp.sst.(cpu).Sim_stats.writebacks <- sp.sst.(cpu).Sim_stats.writebacks + 1

let drop_hints cfg sp line =
  for cpu = 0 to cfg.mc_cpus - 1 do
    sp.sh.(idx cfg cpu line) <- -1
  done

(* Mirror of Coherence.Ref.insert_line + note_eviction. The config
   validation guarantees the victim (if any) is deterministic: either the
   geometry never fills a set, or ways = 1 and the set's only occupant is
   the victim. *)
let spec_insert cfg sp cpu line st =
  let nsets = cfg.mc_capacity / cfg.mc_ways in
  let set = line mod nsets in
  let occupants = ref [] in
  for l = cfg.mc_lines - 1 downto 0 do
    if sp.sc.(idx cfg cpu l) <> ci && l mod nsets = set then
      occupants := l :: !occupants
  done;
  (if List.length !occupants >= cfg.mc_ways then begin
     assert (cfg.mc_ways = 1);
     let victim = List.hd !occupants in
     let vcode = sp.sc.(idx cfg cpu victim) in
     if vcode = cm || vcode = co then spec_wb sp cpu;
     sp.sc.(idx cfg cpu victim) <- ci;
     if holders_of cfg sp victim = [] then drop_hints cfg sp victim
   end);
  sp.sc.(idx cfg cpu line) <- st

let spec_classify cfg sp ~cpu ~line ~off =
  let st = sp.sst.(cpu) in
  if not sp.sto.(line) then
    st.Sim_stats.cold_misses <- st.Sim_stats.cold_misses + 1
  else
    let h = sp.sh.(idx cfg cpu line) in
    if h >= 0 then begin
      sp.sh.(idx cfg cpu line) <- -1;
      let w_off = h / (cfg.mc_line_size + 1)
      and w_len = h mod (cfg.mc_line_size + 1) in
      if off < w_off + w_len && w_off < off + acc_size then
        st.Sim_stats.true_sharing_misses <- st.Sim_stats.true_sharing_misses + 1
      else
        st.Sim_stats.false_sharing_misses <-
          st.Sim_stats.false_sharing_misses + 1
    end
    else st.Sim_stats.capacity_misses <- st.Sim_stats.capacity_misses + 1

(* Mirror of Coherence.Ref.invalidate_others. Under [Skip_last_invalidation]
   the highest-numbered would-be victim keeps its copy — the bug the
   mutation tests prove the checker catches. *)
let spec_invalidate ?mutate cfg sp ~line ~writer ~hint =
  let ow = owner_of cfg sp line in
  let candidates =
    (if ow >= 0 && ow <> writer then [ ow ] else [])
    @ List.filter (fun s -> s <> writer) (sharers_of cfg sp line)
  in
  let skipped =
    match mutate with
    | Some Skip_last_invalidation when candidates <> [] ->
      List.fold_left max (-1) candidates
    | _ -> -1
  in
  List.filter_map
    (fun v ->
      if v = skipped then None
      else begin
        let vcode = sp.sc.(idx cfg v line) in
        if vcode = cm || vcode = co then spec_wb sp v;
        sp.sc.(idx cfg v line) <- ci;
        sp.sh.(idx cfg v line) <- hint;
        Some v
      end)
    candidates

let spec_read ?mutate cfg topo sp ~cpu ~line ~off =
  let st = sp.sst.(cpu) in
  let l1 = (Topology.latencies topo).Topology.l1_hit in
  if sp.sc.(idx cfg cpu line) <> ci then begin
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    l1
  end
  else begin
    spec_classify cfg sp ~cpu ~line ~off;
    let ow = owner_of cfg sp line in
    let shs = sharers_of cfg sp line in
    let latency, st_new =
      if ow >= 0 then begin
        (match sp.sc.(idx cfg ow line) with
        | c when c = cm -> (
          match mutate with
          | Some Read_keeps_modified -> ()  (* forget the downgrade *)
          | _ ->
            if cfg.mc_protocol = Coherence.Mesi then begin
              spec_wb sp ow;
              sp.sc.(idx cfg ow line) <- cs
            end
            else sp.sc.(idx cfg ow line) <- co)
        | c when c = ce -> sp.sc.(idx cfg ow line) <- cs
        | c when c = co -> ()
        | _ -> assert false);
        (Topology.transfer_latency topo ~src:ow ~dst:cpu, cs)
      end
      else if shs <> [] then
        ( List.fold_left
            (fun acc s ->
              min acc (Topology.transfer_latency topo ~src:s ~dst:cpu))
            max_int shs,
          cs )
      else (Topology.memory_latency topo, ce)
    in
    spec_insert cfg sp cpu line st_new;
    latency
  end

let spec_write ?mutate cfg topo sp ~cpu ~line ~off =
  let st = sp.sst.(cpu) in
  let l1 = (Topology.latencies topo).Topology.l1_hit in
  let hint = (off * (cfg.mc_line_size + 1)) + acc_size in
  let c = sp.sc.(idx cfg cpu line) in
  if c = cm then begin
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    l1
  end
  else if c = ce then begin
    sp.sc.(idx cfg cpu line) <- cm;
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    l1
  end
  else if c = cs || c = co then begin
    st.Sim_stats.hits <- st.Sim_stats.hits + 1;
    st.Sim_stats.upgrades <- st.Sim_stats.upgrades + 1;
    let victims = spec_invalidate ?mutate cfg sp ~line ~writer:cpu ~hint in
    st.Sim_stats.invalidations <-
      st.Sim_stats.invalidations + List.length victims;
    sp.sc.(idx cfg cpu line) <- cm;
    max l1 (Topology.invalidation_latency topo ~writer:cpu ~holders:victims)
  end
  else begin
    spec_classify cfg sp ~cpu ~line ~off;
    let ow = owner_of cfg sp line in
    let shs = sharers_of cfg sp line in
    let fetch =
      if ow >= 0 then Topology.transfer_latency topo ~src:ow ~dst:cpu
      else if shs <> [] then
        List.fold_left
          (fun acc s -> min acc (Topology.transfer_latency topo ~src:s ~dst:cpu))
          max_int shs
      else Topology.memory_latency topo
    in
    let victims = spec_invalidate ?mutate cfg sp ~line ~writer:cpu ~hint in
    st.Sim_stats.invalidations <-
      st.Sim_stats.invalidations + List.length victims;
    spec_insert cfg sp cpu line cm;
    max fetch (Topology.invalidation_latency topo ~writer:cpu ~holders:victims)
  end

let spec_access ?mutate cfg topo sp { v_cpu; v_line; v_off; v_write } =
  let st = sp.sst.(v_cpu) in
  if v_write then st.Sim_stats.stores <- st.Sim_stats.stores + 1
  else st.Sim_stats.loads <- st.Sim_stats.loads + 1;
  let lat =
    if v_write then spec_write ?mutate cfg topo sp ~cpu:v_cpu ~line:v_line ~off:v_off
    else spec_read ?mutate cfg topo sp ~cpu:v_cpu ~line:v_line ~off:v_off
  in
  sp.sto.(v_line) <- true;
  st.Sim_stats.stall_cycles <- st.Sim_stats.stall_cycles + lat;
  lat

(* Global protocol invariants over a spec state. [last] is the step that
   produced the state, for the write postcondition ("no stale dirty copy
   after an invalidating write"). Returns the first violation. *)
let spec_check cfg sp ~last =
  let result = ref None in
  let fail fmt = Format.kasprintf (fun m -> if !result = None then result := Some m) fmt in
  for line = 0 to cfg.mc_lines - 1 do
    let owners = ref [] and resident = ref 0 in
    for cpu = 0 to cfg.mc_cpus - 1 do
      let c = sp.sc.(idx cfg cpu line) in
      if c <> ci then incr resident;
      if c = cm || c = co || c = ce then owners := cpu :: !owners;
      if c = co && cfg.mc_protocol = Coherence.Mesi then
        fail "line %d: cpu %d holds Owned under MESI" line cpu
    done;
    (match !owners with
    | [] | [ _ ] -> ()
    | l -> fail "line %d: multiple M/E/O holders (%d)" line (List.length l));
    (match !owners with
    | [ o ] ->
      let c = sp.sc.(idx cfg o line) in
      if (c = cm || c = ce) && !resident > 1 then
        fail "line %d: cpu %d holds %s but other copies exist" line o
          (if c = cm then "M" else "E")
    | _ -> ());
    let live = !resident > 0 in
    for cpu = 0 to cfg.mc_cpus - 1 do
      if sp.sh.(idx cfg cpu line) >= 0 then begin
        if not live then
          fail "line %d: hint for cpu %d outlives the directory entry" line cpu;
        if not sp.sto.(line) then
          fail "line %d: hint for cpu %d on an untouched line" line cpu
      end
    done;
    if live && not sp.sto.(line) then fail "line %d: cached but untouched" line
  done;
  (match last with
  | Some { v_cpu; v_line; v_write = true; _ } ->
    if sp.sc.(idx cfg v_cpu v_line) <> cm then
      fail "after write: cpu %d does not hold line %d in M" v_cpu v_line;
    for cpu = 0 to cfg.mc_cpus - 1 do
      if cpu <> v_cpu && sp.sc.(idx cfg cpu v_line) <> ci then
        fail "after write by cpu %d: stale copy of line %d at cpu %d" v_cpu
          v_line cpu
    done
  | _ -> ());
  !result

(* ---------- canonical packing ---------- *)

let off_index cfg off =
  let rec go i = function
    | [] -> invalid_arg "Modelcheck: unknown offset"
    | o :: _ when o = off -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 cfg.mc_offsets

(* 5 bits per (cpu, line): 3 for the state code, 2 for the pending-hint
   code (0 = none, 1 + offset index otherwise); then 1 bit per line for
   touched. Config validation keeps the total <= 62 bits. *)
let pack cfg sp =
  let acc = ref 0 in
  for cpu = 0 to cfg.mc_cpus - 1 do
    for line = 0 to cfg.mc_lines - 1 do
      let i = idx cfg cpu line in
      let h = sp.sh.(i) in
      let hc = if h < 0 then 0 else 1 + off_index cfg (h / (cfg.mc_line_size + 1)) in
      acc := (!acc lsl 5) lor (sp.sc.(i) lsl 2) lor hc
    done
  done;
  for line = 0 to cfg.mc_lines - 1 do
    acc := (!acc lsl 1) lor if sp.sto.(line) then 1 else 0
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
  if cfg.mc_line_size <= 0 then fail "Modelcheck: line_size <= 0";
  if cfg.mc_capacity < 1 then fail "Modelcheck: capacity < 1";
  if cfg.mc_ways < 1 || cfg.mc_capacity mod cfg.mc_ways <> 0 then
    fail "Modelcheck: ways must divide capacity";
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

let make_topo cfg =
  match cfg.mc_topo with
  | Bus -> Topology.bus ~cpus:cfg.mc_cpus ()
  | Superdome -> Topology.superdome ~cpus:cfg.mc_cpus ()

(* ---------- trace replay (spec only; drives shrinking and tests) ---------- *)

let spec_violation ?mutate cfg trace =
  validate cfg;
  let topo = make_topo cfg in
  let sp = spec_create cfg in
  let rec go = function
    | [] -> None
    | s :: tl -> (
      ignore (spec_access ?mutate cfg topo sp s);
      match spec_check cfg sp ~last:(Some s) with
      | Some _ as v -> v
      | None -> go tl)
  in
  go trace

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

(* ---------- backend conformance ---------- *)

let state_code = function
  | None -> ci
  | Some Cache.Modified -> cm
  | Some Cache.Owned -> co
  | Some Cache.Exclusive -> ce
  | Some Cache.Shared -> cs

let stats_diff name (a : Sim_stats.t) (b : Sim_stats.t) =
  let fields =
    [
      ("loads", a.loads, b.loads);
      ("stores", a.stores, b.stores);
      ("hits", a.hits, b.hits);
      ("cold", a.cold_misses, b.cold_misses);
      ("capacity", a.capacity_misses, b.capacity_misses);
      ("true_fs", a.true_sharing_misses, b.true_sharing_misses);
      ("false_fs", a.false_sharing_misses, b.false_sharing_misses);
      ("upgrades", a.upgrades, b.upgrades);
      ("invalidations", a.invalidations, b.invalidations);
      ("writebacks", a.writebacks, b.writebacks);
      ("stall", a.stall_cycles, b.stall_cycles);
    ]
  in
  List.fold_left
    (fun acc (f, x, y) ->
      match acc with
      | Some _ -> acc
      | None ->
        if x <> y then
          Some (Printf.sprintf "%s: %s spec=%d backend=%d" name f x y)
        else None)
    None fields

let backend_name = function Coherence.Flat -> "flat" | Coherence.Reference -> "ref"

(* Replay [trace] on one backend from scratch and compare the end state
   (and the last access's latency) against the spec. *)
let conform cfg topo backend trace sp expected_lat =
  let c =
    Coherence.create topo ~line_size:cfg.mc_line_size
      ~cache_capacity:cfg.mc_capacity ~ways:cfg.mc_ways
      ~protocol:cfg.mc_protocol ~backend ()
  in
  let b = backend_name backend in
  let last_lat = ref (-1) in
  List.iter
    (fun { v_cpu; v_line; v_off; v_write } ->
      last_lat :=
        Coherence.access c ~cpu:v_cpu
          ~addr:((v_line * cfg.mc_line_size) + v_off)
          ~size:acc_size ~is_write:v_write)
    trace;
  let result = ref None in
  let put m = if !result = None then result := Some m in
  if expected_lat >= 0 && !last_lat <> expected_lat then
    put
      (Printf.sprintf "%s: latency %d, spec charged %d for this transition" b
         !last_lat expected_lat);
  (try Coherence.check_invariants c
   with Invalid_argument m -> put (Printf.sprintf "%s: %s" b m));
  for cpu = 0 to cfg.mc_cpus - 1 do
    (match stats_diff (Printf.sprintf "%s cpu %d" b cpu) sp.sst.(cpu)
             (Coherence.stats c ~cpu)
     with
    | Some m -> put m
    | None -> ());
    for line = 0 to cfg.mc_lines - 1 do
      let want = sp.sc.(idx cfg cpu line) in
      let got = state_code (Coherence.cache_state c ~cpu ~line) in
      if want <> got then
        put
          (Printf.sprintf "%s: cpu %d line %d cache state code %d, spec %d" b
             cpu line got want);
      let wanth = sp.sh.(idx cfg cpu line) in
      let goth =
        match Coherence.inv_hint c ~cpu ~line with
        | None -> -1
        | Some (off, len) -> (off * (cfg.mc_line_size + 1)) + len
      in
      if wanth <> goth then
        put
          (Printf.sprintf "%s: cpu %d line %d hint %d, spec %d" b cpu line goth
             wanth)
    done
  done;
  for line = 0 to cfg.mc_lines - 1 do
    let want_owner = owner_of cfg sp line in
    let got_owner = match Coherence.owner c ~line with None -> -1 | Some o -> o in
    if want_owner <> got_owner then
      put
        (Printf.sprintf "%s: line %d directory owner %d, spec %d" b line
           got_owner want_owner);
    if Coherence.sharers c ~line <> sharers_of cfg sp line then
      put (Printf.sprintf "%s: line %d sharer set disagrees with spec" b line);
    if Coherence.holders c ~line <> holders_of cfg sp line then
      put (Printf.sprintf "%s: line %d holder set disagrees with spec" b line);
    if Coherence.touched c ~line <> sp.sto.(line) then
      put (Printf.sprintf "%s: line %d touched bit disagrees with spec" b line)
  done;
  !result

(* Full per-edge check on both backends; [None] latency means "end state
   only" (used for the initial state). *)
let conform_both cfg topo trace sp expected_lat =
  match conform cfg topo Coherence.Flat trace sp expected_lat with
  | Some _ as v -> v
  | None -> conform cfg topo Coherence.Reference trace sp expected_lat

(* Replay a whole trace doing spec + conformance checks at every step —
   the predicate the shrinker uses for conformance violations, so the
   minimized witness still demonstrates a real disagreement. *)
let trace_violation cfg topo trace =
  let sp = spec_create cfg in
  let rec go done_rev = function
    | [] -> None
    | s :: tl -> (
      let lat = spec_access cfg topo sp s in
      let done_rev = s :: done_rev in
      match spec_check cfg sp ~last:(Some s) with
      | Some _ as v -> v
      | None -> (
        match conform_both cfg topo (List.rev done_rev) sp lat with
        | Some _ as v -> v
        | None -> go done_rev tl))
  in
  go [] trace

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
      (fun i { v_cpu; v_line; v_off; v_write } ->
        {
          Machine.t_cpu = v_cpu;
          t_itc = i;
          t_addr = (v_line * cfg.mc_line_size) + v_off;
          t_size = acc_size;
          t_is_write = v_write;
        })
      trace
  in
  let o = Trace_oracle.analyze ~resolve ~line_size:cfg.mc_line_size events in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 sp.sst in
  let want_t = sum (fun s -> s.Sim_stats.true_sharing_misses)
  and want_f = sum (fun s -> s.Sim_stats.false_sharing_misses) in
  let got_t = Trace_oracle.total_true_sharing o
  and got_f = Trace_oracle.total_false_sharing o in
  if got_t <> want_t || got_f <> want_f then
    Some
      (Printf.sprintf
         "trace oracle: true/false sharing %d/%d, coherence classifier %d/%d"
         got_t got_f want_t want_f)
  else None

(* ---------- exploration ---------- *)

type node = { n_parent : int; n_action : int; n_depth : int; n_spec : spec }

let run ?mutate ?(max_states = 200_000) cfg =
  validate cfg;
  let topo = make_topo cfg in
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
  let check_backends = mutate = None in
  let oracle_on = check_backends && evict_free cfg in
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
      | None -> trace_violation cfg topo tr <> None
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
  add_state (-1) (-1) (spec_create cfg);
  (* The initial state: nothing cached, nothing touched — still worth one
     conformance pass so a backend with dirty create-time state fails. *)
  (if check_backends then
     match conform_both cfg topo [] (spec_create cfg) (-1) with
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
      let sp = spec_copy n.n_spec in
      let lat = spec_access ?mutate cfg topo sp actions.(a) in
      (match spec_check cfg sp ~last:(Some actions.(a)) with
      | Some msg -> violate id (Some actions.(a)) msg
      | None -> ());
      (if check_backends then
         match conform_both cfg topo (prefix @ [ actions.(a) ]) sp lat with
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
   a protocol change in memkern.ml/coherence.ml that alters the reachable
   set shows up as a count drift here even if it violates no invariant. *)
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
