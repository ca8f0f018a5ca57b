(* The protocol spec: the plainest transcription of each protocol step,
   over persistent maps. The directory is derived from the per-CPU cache
   states on demand and never stored, so here no directory can drift from
   the caches. *)

module IM = Map.Make (Int)
module IS = Set.Make (Int)

type state = Coherence.state = Modified | Owned | Exclusive | Shared
type mutation = Read_keeps_modified | Skip_last_invalidation

(* One cache (a CPU's L2, L1 filter or I-cache, or a cell's LLC) as two
   persistent maps: each resident line's state and last-use stamp, and per
   set its fill and its lines keyed by stamp, least recently used first.
   True LRU is then "evict the minimum stamp of a full set". *)
type 'a cache = {
  lines : ('a * int) IM.t;
  sets : (int * int IM.t) IM.t;
}

let empty = { lines = IM.empty; sets = IM.empty }
let find c line = Option.map fst (IM.find_opt line c.lines)

(* Give [line] state [st] and stamp [now], making it its set's most
   recently used line; an absent line is added (the caller made room). *)
let place sh c line st now =
  let set = line mod sh.Coherence.s_sets in
  let fill, order = Option.value (IM.find_opt set c.sets) ~default:(0, IM.empty) in
  let fill, order =
    match IM.find_opt line c.lines with
    | Some (_, old) -> (fill, IM.remove old order)
    | None -> (fill + 1, order)
  in
  {
    lines = IM.add line (st, now) c.lines;
    sets = IM.add set (fill, IM.add now line order) c.sets;
  }

let drop sh c line =
  match IM.find_opt line c.lines with
  | None -> c
  | Some (_, old) ->
    let set = line mod sh.Coherence.s_sets in
    let fill, order = IM.find set c.sets in
    {
      lines = IM.remove line c.lines;
      sets =
        (if fill = 1 then IM.remove set c.sets
         else IM.add set (fill - 1, IM.remove old order) c.sets);
    }

(* The line that inserting [line] would evict: its set's LRU line, when
   the set is full. *)
let victim sh c line =
  match IM.find_opt (line mod sh.Coherence.s_sets) c.sets with
  | Some (fill, order) when fill >= sh.Coherence.s_ways ->
    let v = snd (IM.min_binding order) in
    Some (v, fst (IM.find v c.lines))
  | _ -> None

type t = {
  topo : Topology.t;
  g : Coherence.geometry;
  moesi : bool;
  mutate : mutation option;
  (* The state proper: persistent maps only, and no directory among them.
     [access] and [ifetch] assign these fields on a fresh copy of their
     argument and return that copy, so a [t] never changes once a caller
     holds it. *)
  mutable clock : int;  (* the last LRU stamp handed out *)
  mutable l2 : state cache IM.t;  (* cpu -> its coherent cache *)
  mutable l1 : unit cache IM.t;  (* cpu -> its L1 filter *)
  mutable llc : unit cache IM.t;  (* cell -> its victim LLC *)
  mutable ic : unit cache IM.t;  (* cpu -> its I-cache *)
  mutable hints : (int * int) IM.t IM.t;
      (* line -> cpu -> byte interval (off, len) of the write that
         invalidated that CPU's copy *)
  mutable touched : IS.t;  (* lines ever accessed *)
  mutable stats : Sim_stats.t IM.t;  (* cpu -> counters, copied on write *)
}

let create topo ~line_size ~cache_capacity ?ways ?icache ?hierarchy
    ?(protocol = Coherence.Mesi) ?mutate () =
  {
    topo;
    g = Coherence.geometry ~line_size ~cache_capacity ?ways ?icache ?hierarchy ();
    moesi = protocol = Coherence.Moesi;
    mutate;
    clock = 0;
    l2 = IM.empty;
    l1 = IM.empty;
    llc = IM.empty;
    ic = IM.empty;
    hints = IM.empty;
    touched = IS.empty;
    stats = IM.empty;
  }

(* ---------- helpers over the private copy [w] ---------- *)

let cache_of caches k = Option.value (IM.find_opt k caches) ~default:empty
let lookup caches k line = find (cache_of caches k) line

let stamp w =
  w.clock <- w.clock + 1;
  w.clock

(* Make [line] the most recently used line of cache [k], adding it if
   absent (its set has room). *)
let touch w sh caches k line st =
  IM.add k (place sh (cache_of caches k) line st (stamp w)) caches

let remove sh caches k line = IM.add k (drop sh (cache_of caches k) line) caches

(* Add the absent [line] to cache [k], first evicting its set's LRU line
   if the set is full; returns the caches and that victim. *)
let insert w sh caches k line st =
  let c = cache_of caches k in
  let v = victim sh c line in
  let c = match v with Some (vl, _) -> drop sh c vl | None -> c in
  (IM.add k (place sh c line st (stamp w)) caches, v)

let touch_or_insert w sh caches k line =
  if lookup caches k line <> None then touch w sh caches k line ()
  else fst (insert w sh caches k line ())

let bump w cpu f =
  let s =
    match IM.find_opt cpu w.stats with
    | Some s -> { s with Sim_stats.loads = s.Sim_stats.loads }
    | None -> Sim_stats.create ()
  in
  f s;
  w.stats <- IM.add cpu s w.stats

let count_hit w cpu = bump w cpu (fun s -> s.Sim_stats.hits <- s.Sim_stats.hits + 1)

let count_writeback w cpu =
  bump w cpu (fun s -> s.Sim_stats.writebacks <- s.Sim_stats.writebacks + 1)

let l1_hit w = (Topology.latencies w.topo).Topology.l1_hit

(* The derived directory: every cached copy of [line], by ascending CPU.
   The owner is the copy in M, E or O; the sharers are the copies in S. *)
let copies w line =
  IM.fold
    (fun cpu c acc ->
      match find c line with Some st -> (cpu, st) :: acc | None -> acc)
    w.l2 []
  |> List.rev

let owner_in copies = List.find_opt (fun (_, st) -> st <> Shared) copies

let sharers_in copies =
  List.filter_map (fun (c, st) -> if st = Shared then Some c else None) copies

let nearest w srcs ~dst =
  List.fold_left
    (fun acc src -> min acc (Topology.transfer_latency w.topo ~src ~dst))
    max_int srcs

(* Remove a line from a CPU's L2, back-invalidating its inclusive L1. *)
let l2_remove w cpu line =
  w.l2 <- remove w.g.g_cache w.l2 cpu line;
  match w.g.g_hierarchy with
  | Some (l1s, _) -> w.l1 <- remove l1s w.l1 cpu line
  | None -> ()

let hints_of w line = Option.value (IM.find_opt line w.hints) ~default:IM.empty

let set_hint w cpu line interval =
  w.hints <- IM.add line (IM.add cpu interval (hints_of w line)) w.hints

let take_hint w cpu line =
  let hs = hints_of w line in
  match IM.find_opt cpu hs with
  | None -> None
  | Some interval ->
    let hs = IM.remove cpu hs in
    w.hints <-
      (if IM.is_empty hs then IM.remove line w.hints else IM.add line hs w.hints);
    Some interval

(* ---------- the protocol ---------- *)

(* Cold on the first touch of the line anywhere; else a sharing miss if a
   write invalidated this CPU's copy (true when the byte intervals
   overlap, false otherwise); else a capacity miss. *)
let classify w ~cpu ~line ~off ~size =
  if not (IS.mem line w.touched) then begin
    w.touched <- IS.add line w.touched;
    bump w cpu (fun s -> s.Sim_stats.cold_misses <- s.Sim_stats.cold_misses + 1)
  end
  else
    match take_hint w cpu line with
    | Some (w_off, w_len) when off < w_off + w_len && w_off < off + size ->
      bump w cpu (fun s ->
          s.Sim_stats.true_sharing_misses <- s.Sim_stats.true_sharing_misses + 1)
    | Some _ ->
      bump w cpu (fun s ->
          s.Sim_stats.false_sharing_misses <- s.Sim_stats.false_sharing_misses + 1)
    | None ->
      bump w cpu (fun s ->
          s.Sim_stats.capacity_misses <- s.Sim_stats.capacity_misses + 1)

(* No L2 holds the line: a victim LLC holding it serves it (and gives it
   up) at the distance to its cell, capped at memory; else memory. *)
let memory_fetch w ~cpu ~line =
  let mem = Topology.memory_latency w.topo in
  match w.g.g_hierarchy with
  | None -> mem
  | Some (_, llc_shape) -> (
    match
      Seq.find_map
        (fun (cell, c) -> if find c line <> None then Some cell else None)
        (IM.to_seq w.llc)
    with
    | None -> mem
    | Some cell ->
      w.llc <- remove llc_shape w.llc cell line;
      bump w cpu (fun s ->
          if cell = Topology.cell_of w.topo cpu then
            s.Sim_stats.llc_local_hits <- s.Sim_stats.llc_local_hits + 1
          else s.Sim_stats.llc_remote_hits <- s.Sim_stats.llc_remote_hits + 1);
      min (Topology.llc_hit_latency w.topo ~cpu ~cell) mem)

(* An access served by the L2: [l2_hit] behind an L1 filter, which the
   line is then promoted into; the single-level [l1_hit] otherwise. *)
let l2_hit_cost w cpu line =
  match w.g.g_hierarchy with
  | None -> l1_hit w
  | Some (l1s, _) ->
    bump w cpu (fun s -> s.Sim_stats.l2_hits <- s.Sim_stats.l2_hits + 1);
    w.l1 <- touch_or_insert w l1s w.l1 cpu line;
    Topology.l2_hit_latency w.topo

(* Fill [line] into [cpu]'s L2. A victim writes back when dirty; when it
   was the line's last copy the sharing episode ends (its hints go) and,
   under the hierarchy, it drops into the CPU's cell LLC. Under the
   hierarchy the victim also leaves the CPU's L1 and the new line enters
   it. *)
let insert_line w cpu line st =
  let l2, v = insert w w.g.g_cache w.l2 cpu line st in
  w.l2 <- l2;
  (match v with
  | None -> ()
  | Some (vline, vst) -> (
    if vst = Modified || vst = Owned then count_writeback w cpu;
    let dead = copies w vline = [] in
    if dead then w.hints <- IM.remove vline w.hints;
    match w.g.g_hierarchy with
    | None -> ()
    | Some (l1s, llc_shape) ->
      w.l1 <- remove l1s w.l1 cpu vline;
      if dead then
        w.llc <- fst (insert w llc_shape w.llc (Topology.cell_of w.topo cpu) vline ())));
  match w.g.g_hierarchy with
  | Some (l1s, _) -> w.l1 <- touch_or_insert w l1s w.l1 cpu line
  | None -> ()

(* Invalidate every other copy of [line] (dirty ones write back) and
   record the writer's byte interval against each; returns the CPUs
   invalidated. [Skip_last_invalidation] spares the highest-numbered. *)
let invalidate_others w ~line ~writer ~interval =
  let victims = List.filter (fun (c, _) -> c <> writer) (copies w line) in
  let victims =
    match (w.mutate, List.rev victims) with
    | Some Skip_last_invalidation, _ :: spared -> List.rev spared
    | _ -> victims
  in
  List.iter
    (fun (v, st) ->
      if st = Modified || st = Owned then count_writeback w v;
      l2_remove w v line;
      set_hint w v line interval)
    victims;
  let n = List.length victims in
  bump w writer (fun s -> s.Sim_stats.invalidations <- s.Sim_stats.invalidations + n);
  Topology.invalidation_latency w.topo ~writer ~holders:(List.map fst victims)

let read w ~cpu ~line ~off ~size =
  match w.g.g_hierarchy with
  | Some (l1s, _) when lookup w.l1 cpu line <> None ->
    (* L1 filter hit: inclusion guarantees a readable L2 copy; the L2 LRU
       is not touched. *)
    w.l1 <- touch w l1s w.l1 cpu line ();
    count_hit w cpu;
    bump w cpu (fun s -> s.Sim_stats.l1_hits <- s.Sim_stats.l1_hits + 1);
    l1_hit w
  | _ -> (
    match lookup w.l2 cpu line with
    | Some st ->
      w.l2 <- touch w w.g.g_cache w.l2 cpu line st;
      count_hit w cpu;
      l2_hit_cost w cpu line
    | None ->
      classify w ~cpu ~line ~off ~size;
      let cs = copies w line in
      let latency, st =
        match owner_in cs with
        | Some (o, ost) ->
          (* The owner supplies the data. A state change refreshes the
             owner's LRU position: MESI M -> S writes back, MOESI M -> O
             defers it, E -> S is clean, O stays O. *)
          let downgrade st = w.l2 <- touch w w.g.g_cache w.l2 o line st in
          (match (ost, w.mutate) with
          | Modified, Some Read_keeps_modified -> ()
          | Modified, _ when not w.moesi ->
            count_writeback w o;
            downgrade Shared
          | Modified, _ -> downgrade Owned
          | Exclusive, _ -> downgrade Shared
          | (Owned | Shared), _ -> ());
          (Topology.transfer_latency w.topo ~src:o ~dst:cpu, Shared)
        | None -> (
          match sharers_in cs with
          | [] -> (memory_fetch w ~cpu ~line, Exclusive)
          | shs -> (nearest w shs ~dst:cpu, Shared))
      in
      insert_line w cpu line st;
      latency)

let write w ~cpu ~line ~off ~size =
  let interval = (off, size) in
  let st = lookup w.l2 cpu line in
  match w.g.g_hierarchy with
  | Some (l1s, _) when st = Some Modified && lookup w.l1 cpu line <> None ->
    (* The only write the L1 filter absorbs alone: the line is already M. *)
    w.l1 <- touch w l1s w.l1 cpu line ();
    count_hit w cpu;
    bump w cpu (fun s -> s.Sim_stats.l1_hits <- s.Sim_stats.l1_hits + 1);
    l1_hit w
  | _ -> (
    match st with
    | Some (Modified | Exclusive) ->
      (* a hit, or the silent E -> M upgrade *)
      w.l2 <- touch w w.g.g_cache w.l2 cpu line Modified;
      count_hit w cpu;
      l2_hit_cost w cpu line
    | Some (Shared | Owned) ->
      (* upgrade: we have the data; invalidate every other copy *)
      count_hit w cpu;
      bump w cpu (fun s -> s.Sim_stats.upgrades <- s.Sim_stats.upgrades + 1);
      let inv = invalidate_others w ~line ~writer:cpu ~interval in
      w.l2 <- touch w w.g.g_cache w.l2 cpu line Modified;
      max (l2_hit_cost w cpu line) inv
    | None ->
      classify w ~cpu ~line ~off ~size;
      let cs = copies w line in
      let fetch =
        match owner_in cs with
        | Some (o, _) -> Topology.transfer_latency w.topo ~src:o ~dst:cpu
        | None -> (
          match sharers_in cs with
          | [] -> memory_fetch w ~cpu ~line
          | shs -> nearest w shs ~dst:cpu)
      in
      let inv = invalidate_others w ~line ~writer:cpu ~interval in
      insert_line w cpu line Modified;
      max fetch inv)

let check_cpu t who cpu =
  if cpu < 0 || cpu >= Topology.num_cpus t.topo then
    invalid_arg (Printf.sprintf "Coherence_spec.%s: cpu %d out of range" who cpu)

let access t ~cpu ~addr ~size ~is_write =
  check_cpu t "access" cpu;
  if size <= 0 then invalid_arg "Coherence_spec.access: size <= 0";
  if addr < 0 then invalid_arg "Coherence_spec.access: addr < 0";
  let line = addr / t.g.g_line_size and off = addr mod t.g.g_line_size in
  if off + size > t.g.g_line_size then
    invalid_arg "Coherence_spec.access: the access straddles a line";
  let w = { t with clock = t.clock } in
  bump w cpu (fun s ->
      if is_write then s.Sim_stats.stores <- s.Sim_stats.stores + 1
      else s.Sim_stats.loads <- s.Sim_stats.loads + 1);
  let latency =
    if is_write then write w ~cpu ~line ~off ~size else read w ~cpu ~line ~off ~size
  in
  bump w cpu (fun s -> s.Sim_stats.stall_cycles <- s.Sim_stats.stall_cycles + latency);
  (w, latency)

(* Every I-cache line the range overlaps is fetched: a hit costs [l1_hit],
   a miss a memory fetch; victims are dropped (code is never dirty). *)
let ifetch t ~cpu ~addr ~size =
  match t.g.g_icache with
  | None -> invalid_arg "Coherence_spec.ifetch: no instruction cache configured"
  | Some (sh, ilsize) ->
    check_cpu t "ifetch" cpu;
    if size <= 0 then invalid_arg "Coherence_spec.ifetch: size <= 0";
    if addr < 0 then invalid_arg "Coherence_spec.ifetch: addr < 0";
    let w = { t with clock = t.clock } in
    let total = ref 0 in
    for line = addr / ilsize to (addr + size - 1) / ilsize do
      bump w cpu (fun s -> s.Sim_stats.ifetches <- s.Sim_stats.ifetches + 1);
      if lookup w.ic cpu line <> None then begin
        w.ic <- touch w sh w.ic cpu line ();
        total := !total + l1_hit w
      end
      else begin
        bump w cpu (fun s -> s.Sim_stats.imisses <- s.Sim_stats.imisses + 1);
        w.ic <- fst (insert w sh w.ic cpu line ());
        total := !total + Topology.memory_latency w.topo
      end
    done;
    let total = !total in
    bump w cpu (fun s -> s.Sim_stats.istall_cycles <- s.Sim_stats.istall_cycles + total);
    (w, total)

(* ---------- introspection ---------- *)

let stats t ~cpu =
  let s = Sim_stats.create () in
  Option.iter (Sim_stats.add_into s) (IM.find_opt cpu t.stats);
  s

let total_stats t = Sim_stats.sum (List.map snd (IM.bindings t.stats))
let cache_state t ~cpu ~line = lookup t.l2 cpu line
let owner t ~line = Option.map fst (owner_in (copies t line))
let sharers t ~line = sharers_in (copies t line)
let holders t ~line = List.map fst (copies t line)
let inv_hint t ~cpu ~line = IM.find_opt cpu (hints_of t line)
let touched t ~line = IS.mem line t.touched
let icache_resident t ~cpu ~line = lookup t.ic cpu line <> None
let l1_resident t ~cpu ~line = lookup t.l1 cpu line <> None

let llc_cell t ~line =
  Seq.find_map
    (fun (cell, c) -> if find c line <> None then Some cell else None)
    (IM.to_seq t.llc)

(* Protocol invariants over the whole state; the first violated one. *)
let violation t =
  let first = ref None in
  let fail fmt =
    Format.kasprintf (fun m -> if !first = None then first := Some m) fmt
  in
  let cached =
    IM.fold (fun _ c acc -> IM.fold (fun l _ acc -> IS.add l acc) c.lines acc) t.l2 IS.empty
  in
  IS.iter
    (fun line ->
      let cs = copies t line in
      (match List.filter (fun (_, st) -> st <> Shared) cs with
      | [] -> ()
      | [ (o, ((Modified | Exclusive) as st)) ] when List.length cs > 1 ->
        fail "line %d: cpu %d holds %s but other copies exist" line o
          (if st = Modified then "M" else "E")
      | [ (o, Owned) ] when not t.moesi ->
        fail "line %d: cpu %d holds Owned under MESI" line o
      | [ _ ] -> ()
      | owners -> fail "line %d: multiple M/E/O holders (%d)" line (List.length owners));
      if not (IS.mem line t.touched) then fail "line %d: cached but untouched" line)
    cached;
  IM.iter
    (fun line hs ->
      IM.iter
        (fun cpu _ ->
          if not (IS.mem line cached) then
            fail "line %d: hint for cpu %d outlives the sharing episode" line cpu;
          if not (IS.mem line t.touched) then
            fail "line %d: hint for cpu %d on an untouched line" line cpu)
        hs)
    t.hints;
  IM.iter
    (fun cpu c ->
      IM.iter
        (fun line _ ->
          if lookup t.l2 cpu line = None then
            fail "L1 line %d of cpu %d not in its L2" line cpu)
        c.lines)
    t.l1;
  IM.iter
    (fun cell c ->
      IM.iter
        (fun line _ ->
          if IS.mem line cached then fail "LLC line %d is also cached" line;
          if llc_cell t ~line <> Some cell then
            fail "LLC line %d resident in two cells" line)
        c.lines)
    t.llc;
  !first

let mismatch t k ~lines =
  let first = ref None in
  let fail fmt =
    Format.kasprintf (fun m -> if !first = None then first := Some m) fmt
  in
  let cpus = List.init (Topology.num_cpus t.topo) Fun.id in
  List.iter
    (fun cpu ->
      let a = stats t ~cpu and b = Coherence.stats k ~cpu in
      if a <> b then
        fail "cpu %d statistics: spec %a, kernel %a" cpu Sim_stats.pp a
          Sim_stats.pp b)
    cpus;
  List.iter
    (fun line ->
      let same what a b = if a <> b then fail "line %d: %s differs" line what in
      same "owner" (owner t ~line) (Coherence.owner k ~line);
      same "sharer set" (sharers t ~line) (Coherence.sharers k ~line);
      same "holder set" (holders t ~line) (Coherence.holders k ~line);
      same "touched bit" (touched t ~line) (Coherence.touched k ~line);
      same "LLC cell" (llc_cell t ~line) (Coherence.llc_cell k ~line);
      List.iter
        (fun cpu ->
          let same what a b =
            if a <> b then fail "cpu %d line %d: %s differs" cpu line what
          in
          same "cache state" (cache_state t ~cpu ~line)
            (Coherence.cache_state k ~cpu ~line);
          same "invalidation hint" (inv_hint t ~cpu ~line)
            (Coherence.inv_hint k ~cpu ~line);
          same "L1 residency" (l1_resident t ~cpu ~line)
            (Coherence.l1_resident k ~cpu ~line);
          same "I-cache residency" (icache_resident t ~cpu ~line)
            (Coherence.icache_resident k ~cpu ~line))
        cpus)
    lines;
  !first
