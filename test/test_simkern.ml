(* Tests for the memory-system kernel: Flat_tab model checking, the
   kernel-vs-spec differential oracle, coherence-invariant properties over
   the introspection API, the hint-staleness regression, LRU refresh on
   state changes, and machine-level trace replay through the spec. *)

module Topology = Slo_sim.Topology
module Coherence = Slo_sim.Coherence
module Spec = Slo_sim.Coherence_spec
module Flat_tab = Slo_util.Flat_tab
module Sim_stats = Slo_sim.Sim_stats
module Machine = Slo_sim.Machine
module Parser = Slo_ir.Parser
module Typecheck = Slo_ir.Typecheck

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Flat_tab: model-checked against Hashtbl *)

type tab_op = Set of int * int | Remove of int | Clear

let tab_op_gen =
  QCheck2.Gen.(
    let* tag = int_range 0 9 in
    let* k = int_range 0 30 in
    let* v = int_range (-1000) 1000 in
    return (if tag < 6 then Set (k, v) else if tag < 9 then Remove k else Clear))

let prop_flat_tab_matches_hashtbl =
  QCheck2.Test.make ~name:"Flat_tab behaves like Hashtbl under random ops"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) tab_op_gen)
    (fun ops ->
      let t = Flat_tab.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (function
          | Set (k, v) -> Flat_tab.set t k v; Hashtbl.replace h k v
          | Remove k -> Flat_tab.remove t k; Hashtbl.remove h k
          | Clear -> Flat_tab.clear t; Hashtbl.reset h)
        ops;
      Flat_tab.length t = Hashtbl.length h
      && List.for_all
           (fun k ->
             Flat_tab.mem t k = Hashtbl.mem h k
             && Flat_tab.find t k ~default:min_int
                = Option.value (Hashtbl.find_opt h k) ~default:min_int)
           (List.init 32 Fun.id)
      && Flat_tab.fold t ~init:0 ~f:(fun acc _ v -> acc + v)
         = Hashtbl.fold (fun _ v acc -> acc + v) h 0)

let test_flat_tab_grow_and_shift () =
  let t = Flat_tab.create ~capacity:4 () in
  for k = 0 to 199 do
    Flat_tab.set t k (k * 3)
  done;
  check_int "grown to 200 live" 200 (Flat_tab.length t);
  (* Deleting every other key must leave the survivors findable: the
     backward-shift delete has to repair every displaced probe chain. *)
  for k = 0 to 199 do
    if k mod 2 = 0 then Flat_tab.remove t k
  done;
  check_int "half removed" 100 (Flat_tab.length t);
  for k = 0 to 199 do
    check_int
      (Printf.sprintf "key %d" k)
      (if k mod 2 = 0 then -7 else k * 3)
      (Flat_tab.find t k ~default:(-7))
  done;
  match Flat_tab.set t (-1) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted negative key"

(* ------------------------------------------------------------------ *)
(* Differential oracle: the kernel must be indistinguishable from the
   spec — per-access latencies, per-CPU statistics, directory contents,
   cache states — across protocols, topologies and associativities. *)

(* The kernel and the spec fed the same steps; every latency must agree. *)
type pair = { kern : Coherence.t; mutable spec : Spec.t }

let pair ?ways ?icache ?hierarchy ?protocol ~cache_capacity topology =
  {
    kern =
      Coherence.create topology ~line_size:128 ~cache_capacity ?ways ?icache
        ?hierarchy ?protocol ();
    spec =
      Spec.create topology ~line_size:128 ~cache_capacity ?ways ?icache
        ?hierarchy ?protocol ();
  }

let step p ~cpu ~addr ~is_write =
  let a = Coherence.access p.kern ~cpu ~addr ~size:8 ~is_write in
  let spec, b = Spec.access p.spec ~cpu ~addr ~size:8 ~is_write in
  p.spec <- spec;
  if a <> b then
    Alcotest.failf "latency diverged (cpu %d addr %d write %b): kernel %d, spec %d"
      cpu addr is_write a b;
  a

let fetch p ~cpu ~addr ~size =
  let a = Coherence.ifetch p.kern ~cpu ~addr ~size in
  let spec, b = Spec.ifetch p.spec ~cpu ~addr ~size in
  p.spec <- spec;
  if a <> b then
    Alcotest.failf "fetch latency diverged (cpu %d addr %d size %d): kernel %d, spec %d"
      cpu addr size a b;
  a

(* Both sides' invariants hold and their observable states agree on
   lines [0, lines). *)
let agree ?(lines = 12) p =
  Coherence.check_invariants p.kern;
  Option.iter (Alcotest.failf "spec invariant: %s") (Spec.violation p.spec);
  Option.iter
    (Alcotest.failf "kernel and spec disagree: %s")
    (Spec.mismatch p.spec p.kern ~lines:(List.init lines Fun.id))

let topologies =
  [
    ("superdome8", Topology.superdome ~cpus:8 ());
    (* > 62 CPUs exercises the kernel's multi-word sharer bitmasks *)
    ("superdome128", Topology.superdome ~cpus:128 ());
    ("bus4", Topology.bus ~cpus:4 ());
  ]

let assoc_variants = [ ("direct", Some 1); ("2way", Some 2); ("full", None) ]
let lines_in_play = 12

let trace_gen =
  QCheck2.Gen.(
    list_size (int_range 1 150)
      (let* cpu = int_range 0 1000 in
       let* line = int_range 0 (lines_in_play - 1) in
       let* off = int_range 0 15 in
       let* w = bool in
       return (cpu, line, off, w)))

let run_trace p topology trace =
  let cpus = Topology.num_cpus topology in
  List.iter
    (fun (cpu, line, off, w) ->
      ignore (step p ~cpu:(cpu mod cpus) ~addr:((line * 128) + (off * 8)) ~is_write:w))
    trace

let run_both ~topology ~protocol ~ways trace =
  let p = pair topology ~cache_capacity:8 ?ways ~protocol in
  run_trace p topology trace;
  agree p

let prop_differential =
  QCheck2.Test.make
    ~name:
      "flat kernel == reference spec (latencies, stats, directory) across \
       protocols x topologies x associativities" ~count:25 trace_gen
    (fun trace ->
      List.iter
        (fun (_, topology) ->
          List.iter
            (fun protocol ->
              List.iter
                (fun (_, ways) -> run_both ~topology ~protocol ~ways trace)
                assoc_variants)
            [ Coherence.Mesi; Coherence.Moesi ])
        topologies;
      true)

(* ------------------------------------------------------------------ *)
(* Coherence invariants via the introspection API *)

let prop_directory_invariants =
  QCheck2.Test.make
    ~name:
      "owner holds M/E/O, owner not in sharers, sharers hold S, MESI never \
       Owned" ~count:60 trace_gen
    (fun trace ->
      List.iter
        (fun protocol ->
          let topology = Topology.superdome ~cpus:8 () in
          let p = pair topology ~cache_capacity:8 ~protocol in
          run_trace p topology trace;
          let c = p.kern in
          for line = 0 to lines_in_play - 1 do
            let sharers = Coherence.sharers c ~line in
            (match Coherence.owner c ~line with
            | Some o ->
                (match Coherence.cache_state c ~cpu:o ~line with
                | Some (Coherence.Modified | Coherence.Exclusive | Coherence.Owned) -> ()
                | st ->
                    Alcotest.failf "owner of line %d holds %s" line
                      (match st with
                      | None -> "nothing"
                      | Some Coherence.Shared -> "S"
                      | _ -> "?"));
                if List.mem o sharers then
                  Alcotest.failf "owner %d in sharer set of line %d" o line
            | None -> ());
            List.iter
              (fun s ->
                if Coherence.cache_state c ~cpu:s ~line <> Some Coherence.Shared
                then Alcotest.failf "sharer %d of line %d not in S" s line)
              sharers;
            if protocol = Coherence.Mesi then
              for cpu = 0 to 7 do
                if Coherence.cache_state c ~cpu ~line = Some Coherence.Owned then
                  Alcotest.failf "MESI produced Owned (cpu %d line %d)" cpu
                    line
              done
          done;
          (* the spec's own invariants, and its agreement with the kernel *)
          agree p)
        [ Coherence.Mesi; Coherence.Moesi ];
      true)

(* ------------------------------------------------------------------ *)
(* Hint staleness regression.

   Before the fix, an invalidation hint recorded against a CPU survived
   the end of the sharing episode: once every cached copy of the line was
   evicted (directory entry gone), the CPU's much-later re-fetch still
   consulted the stale hint and was misclassified as a sharing miss. The
   fix drops a line's hints when its last cached copy goes, so the
   re-fetch counts as a capacity miss. This scenario failed on the pre-fix
   code (it reported false_sharing = 1, capacity = 0). Each scenario runs
   on the kernel and the spec. *)

let test_hint_staleness () =
  let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:2 in
  let access cpu addr w = ignore (step p ~cpu ~addr ~is_write:w) in
  access 0 0 false;
  (* cpu1 writes bytes 8..15 of line 0: cpu0 invalidated, hint recorded *)
  access 1 8 true;
  (* cpu1's 2-line cache evicts line 0 (the LRU) on the second fill; the
     last cached copy is gone, so the sharing episode is over *)
  access 1 128 false;
  access 1 256 false;
  Alcotest.(check (list int)) "no copies left" [] (Coherence.holders p.kern ~line:0);
  (* cpu0 re-reads bytes 0..7 — disjoint from the hint interval, so the
     stale hint would classify this as a false-sharing miss *)
  access 0 0 false;
  let st = Coherence.stats p.kern ~cpu:0 in
  check_int "capacity miss" 1 st.Sim_stats.capacity_misses;
  check_int "no false sharing" 0 st.Sim_stats.false_sharing_misses;
  check_int "no true sharing" 0 st.Sim_stats.true_sharing_misses;
  agree p

let test_hint_live_episode () =
  (* Sanity check that the fix did not over-drop: while the episode is
     live the hint still classifies the next miss. *)
  let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:4 in
  let access cpu addr w = ignore (step p ~cpu ~addr ~is_write:w) in
  access 0 0 false;
  access 1 8 true;
  access 0 0 false;
  check_int "false sharing" 1
    (Coherence.stats p.kern ~cpu:0).Sim_stats.false_sharing_misses;
  access 1 0 true;
  access 0 0 false;
  check_int "true sharing" 1
    (Coherence.stats p.kern ~cpu:0).Sim_stats.true_sharing_misses;
  agree p

(* ------------------------------------------------------------------ *)
(* LRU refresh on a state change. A remote read that downgrades the
   owner's copy (MESI E -> S and M -> S, MOESI M -> O) makes that copy its
   set's most recently used line, so the owner's next fill evicts the
   other line instead. *)

let test_downgrade_refreshes_lru () =
  List.iter
    (fun (protocol, dirty, downgraded) ->
      let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:2 ~protocol in
      ignore (step p ~cpu:0 ~addr:0 ~is_write:dirty);
      ignore (step p ~cpu:0 ~addr:128 ~is_write:false);
      (* line 0 is cpu0's LRU line until cpu1's read downgrades it *)
      ignore (step p ~cpu:1 ~addr:0 ~is_write:false);
      Alcotest.(check bool) "owner downgraded" true
        (Coherence.cache_state p.kern ~cpu:0 ~line:0 = Some downgraded);
      ignore (step p ~cpu:0 ~addr:256 ~is_write:false);
      Alcotest.(check bool) "downgraded line kept" true
        (Coherence.cache_state p.kern ~cpu:0 ~line:0 <> None);
      Alcotest.(check bool) "untouched line evicted" true
        (Coherence.cache_state p.kern ~cpu:0 ~line:1 = None);
      agree p)
    [
      (Coherence.Mesi, false, Coherence.Shared);
      (Coherence.Mesi, true, Coherence.Shared);
      (Coherence.Moesi, true, Coherence.Owned);
    ]

(* A negative address is rejected before any statistic moves; it once
   aliased line 0 at a negative offset, or escaped from the kernel's line
   table. *)
let test_negative_address () =
  let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:4 in
  List.iter
    (fun addr ->
      (match Coherence.access p.kern ~cpu:0 ~addr ~size:8 ~is_write:true with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "kernel accepted address %d" addr);
      match Spec.access p.spec ~cpu:0 ~addr ~size:8 ~is_write:true with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "spec accepted address %d" addr)
    [ -200; -64; -1 ];
  check_int "no store counted" 0 (Coherence.stats p.kern ~cpu:0).Sim_stats.stores;
  agree p

(* ------------------------------------------------------------------ *)
(* Machine-level: run the kernel machine with tracing on, replay its data
   trace and fetch trace through the spec, and demand the same per-CPU
   statistics. The trace holds every access in the kernel's order (the
   fetch side is private and coherence-free, so its order against the
   data side does not matter). *)

let src =
  {|
struct S { long a; long b; long arr[4]; };
long hits;
void writer(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    s->a = s->a + 1;
    s->arr[i % 4] = i;
    hits = hits + 1;
  }
}
void reader(struct S *s, int n) {
  for (i = 0; i < n; i++) {
    x = s->b + s->arr[i % 4];
  }
}
|}

let run_src_machine ?icache ?code_layout () =
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let topology = Topology.superdome ~cpus:4 () in
  let config =
    {
      (Machine.default_config topology) with
      Machine.cache_lines = 16;
      sample_period = Some 50;
      trace = true;
      seed = 11;
      icache;
    }
  in
  let m = Machine.create config program in
  Option.iter (Machine.set_code_layout m) code_layout;
  let s = Machine.alloc m ~struct_name:"S" in
  for cpu = 0 to 3 do
    Machine.add_thread m ~cpu
      ~work:
        [
          ( (if cpu mod 2 = 0 then "writer" else "reader"),
            [ Machine.Ainst s; Machine.Aint 40 ] );
        ]
  done;
  (config, Machine.run m)

let replays_on_spec (config, (r : Machine.result)) =
  let spec =
    Spec.create config.Machine.topology ~line_size:config.Machine.line_size
      ~cache_capacity:config.Machine.cache_lines ?ways:config.Machine.cache_ways
      ?icache:config.Machine.icache ~protocol:config.Machine.protocol ()
  in
  let spec =
    List.fold_left
      (fun s (e : Machine.trace_event) ->
        fst
          (Spec.access s ~cpu:e.Machine.t_cpu ~addr:e.Machine.t_addr
             ~size:e.Machine.t_size ~is_write:e.Machine.t_is_write))
      spec r.Machine.trace
  in
  let spec =
    List.fold_left
      (fun s (e : Machine.trace_event) ->
        fst
          (Spec.ifetch s ~cpu:e.Machine.t_cpu ~addr:e.Machine.t_addr
             ~size:e.Machine.t_size))
      spec r.Machine.fetch_trace
  in
  Array.iteri
    (fun cpu st ->
      if st <> Spec.stats spec ~cpu then
        Alcotest.failf "cpu %d: machine statistics differ from the spec replay" cpu)
    r.Machine.per_cpu_stats

let test_machine_trace_replay () =
  let (_, r) as run = run_src_machine () in
  Alcotest.(check bool) "trace non-empty" true (r.Machine.trace <> []);
  replays_on_spec run

(* Backward-shift deletion across the wrap-around boundary. With the
   minimum capacity (8 slots, mask 7) and the kernel's Fibonacci hash,
   keys 3, 11, 19 all home at slot 7 and key 0 homes at slot 0, so
   inserting [3; 11; 19; 0] builds one probe cluster spanning slots
   7, 0, 1, 2 — across the wrap. Deleting the cluster head forces
   algorithm R to slide entries backwards over the boundary (slot 0 -> 7)
   while leaving the chain findable. *)
let test_flat_tab_wraparound_delete () =
  let t = Flat_tab.create ~capacity:8 () in
  let home k = (k * 0x2545F4914F6CDD1D) land 7 in
  check_int "3 homes at the last slot" 7 (home 3);
  check_int "11 homes at the last slot" 7 (home 11);
  check_int "19 homes at the last slot" 7 (home 19);
  check_int "0 homes at the first slot" 0 (home 0);
  List.iter (fun k -> Flat_tab.set t k (k * 10)) [ 3; 11; 19; 0 ];
  (* Delete the head at slot 7: 11 must wrap back 0 -> 7, then 19 and 0
     each slide one slot back on the other side of the boundary. *)
  Flat_tab.remove t 3;
  check_int "three survivors" 3 (Flat_tab.length t);
  List.iter
    (fun k -> check_int (Printf.sprintf "key %d findable after wrap" k)
        (k * 10) (Flat_tab.find t k ~default:(-1)))
    [ 11; 19; 0 ];
  Alcotest.(check bool) "deleted key gone" false (Flat_tab.mem t 3);
  (* A missing key homing inside the cluster probes through the wrap and
     still terminates at an empty slot. *)
  check_int "absent key probes through the boundary" (-1)
    (Flat_tab.find t 27 ~default:(-1));
  (* Delete the entry now sitting at slot 0: its successor (home 0) must
     move back into the exact gap, not to its own home's copy. *)
  Flat_tab.remove t 19;
  check_int "key 0 still findable" 0 (Flat_tab.find t 0 ~default:(-1));
  check_int "key 11 still findable" 110 (Flat_tab.find t 11 ~default:(-1));
  check_int "two survivors" 2 (Flat_tab.length t)

(* Sharer masks wider than one 62-bit word: CPUs 60 and 61 sit in bits
   60/61 of word 0 (the word boundary), 62 and 63 in bits 0/1 of word 1.
   The 128-CPU Superdome forces the kernel's multi-word mask path; the
   spec is the oracle throughout. *)
let test_multiword_sharer_mask () =
  let p = pair (Topology.superdome ()) ~cache_capacity:4 in
  let c = p.kern in
  List.iter (fun cpu -> ignore (step p ~cpu ~addr:0 ~is_write:false)) [ 61; 60; 62; 63 ];
  Alcotest.(check (list int))
    "sharer set spans the word boundary" [ 60; 61; 62; 63 ]
    (Coherence.sharers c ~line:0);
  Alcotest.(check (option int)) "no owner" None (Coherence.owner c ~line:0);
  agree p;
  (* A write from word 0 must invalidate holders in both words at once. *)
  ignore (step p ~cpu:0 ~addr:8 ~is_write:true);
  Alcotest.(check (list int)) "writer is the sole holder" [ 0 ]
    (Coherence.holders c ~line:0);
  check_int "all four copies invalidated" 4
    (Coherence.stats c ~cpu:0).Sim_stats.invalidations;
  Alcotest.(check (option (pair int int)))
    "hint recorded across the word boundary" (Some (8, 8))
    (Coherence.inv_hint c ~cpu:63 ~line:0);
  agree p;
  (* The invalidated high-word CPU classifies its next miss off the hint:
     disjoint byte intervals = false sharing. *)
  ignore (step p ~cpu:63 ~addr:0 ~is_write:false);
  check_int "false-sharing miss classified in word 1" 1
    (Coherence.stats c ~cpu:63).Sim_stats.false_sharing_misses;
  agree p

(* Evicting the last sharer (a word-1 CPU) must kill the directory entry:
   holders goes empty, and a later re-fetch is a capacity miss, not a
   stale sharing miss. *)
let test_clear_last_sharer_kills_entry () =
  let p = pair (Topology.superdome ()) ~cache_capacity:2 ~ways:1 in
  let c = p.kern in
  let read cpu addr = ignore (step p ~cpu ~addr ~is_write:false) in
  read 62 0;
  read 63 0;
  (* Line 2 maps to the same set as line 0 (2 sets, 1 way): each fetch
     evicts the CPU's copy of line 0, clearing its word-1 sharer bit. *)
  read 62 256;
  Alcotest.(check (list int)) "one sharer left" [ 63 ] (Coherence.holders c ~line:0);
  read 63 256;
  Alcotest.(check (list int)) "entry dead: no holders" [] (Coherence.holders c ~line:0);
  Alcotest.(check (option int)) "entry dead: no owner" None (Coherence.owner c ~line:0);
  read 63 0;
  (* Every miss by CPU 63 on an already-touched line is a capacity miss
     (its line-0 join, the line-2 fetch, and this re-fetch); the point is
     that none became a stale sharing miss. *)
  let st = Coherence.stats c ~cpu:63 in
  check_int "re-fetch is a capacity miss" 3 st.Sim_stats.capacity_misses;
  check_int "no stale sharing classification" 0
    (st.Sim_stats.true_sharing_misses + st.Sim_stats.false_sharing_misses);
  agree p

(* ------------------------------------------------------------------ *)
(* Instruction-fetch side. The I-cache is private and coherence-free, but
   the kernel and the spec must still agree to the bit — on per-line fetch
   latencies, the ifetch counters, and residency — with data traffic
   interleaved so neither side can bleed into the other. *)

let icfg = { Coherence.i_lines = 4; i_ways = None; i_line_size = 64 }

let test_ifetch_unconfigured () =
  let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:4 in
  Alcotest.(check bool) "no icache" false (Coherence.has_icache p.kern);
  (match Coherence.ifetch p.kern ~cpu:0 ~addr:0 ~size:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kernel ifetch accepted without an icache");
  match Spec.ifetch p.spec ~cpu:0 ~addr:0 ~size:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "spec ifetch accepted without an icache"

let test_ifetch_line_walk () =
  let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:4 ~icache:icfg in
  let c = p.kern in
  Alcotest.(check bool) "icache on" true (Coherence.has_icache c);
  check_int "line size" 64 (Coherence.icache_line_size c);
  (* 8 bytes at offset 60 span I-lines 0 and 1: two fetches, two misses *)
  let cold = fetch p ~cpu:0 ~addr:60 ~size:8 in
  let st () = Coherence.stats c ~cpu:0 in
  check_int "two line fetches" 2 (st ()).Sim_stats.ifetches;
  check_int "two cold misses" 2 (st ()).Sim_stats.imisses;
  check_int "stall cycles accumulate" cold (st ()).Sim_stats.istall_cycles;
  Alcotest.(check bool) "line 0 resident" true
    (Coherence.icache_resident c ~cpu:0 ~line:0);
  Alcotest.(check bool) "line 1 resident" true
    (Coherence.icache_resident c ~cpu:0 ~line:1);
  Alcotest.(check bool) "private: not on the other cpu" false
    (Coherence.icache_resident c ~cpu:1 ~line:0);
  let warm = fetch p ~cpu:0 ~addr:60 ~size:8 in
  Alcotest.(check bool) "warm refetch is cheaper" true (warm < cold);
  check_int "no new misses" 2 (st ()).Sim_stats.imisses;
  check_int "data side untouched" 0 ((st ()).Sim_stats.loads + (st ()).Sim_stats.stores);
  agree p

let test_icache_lru () =
  let p = pair (Topology.bus ~cpus:2 ()) ~cache_capacity:4 ~icache:icfg in
  let fetch l = ignore (fetch p ~cpu:0 ~addr:(l * 64) ~size:4) in
  List.iter fetch [ 0; 1; 2; 3 ];
  (* touch 0: line 1 becomes the LRU victim of the capacity-busting fetch *)
  fetch 0;
  fetch 4;
  let res l = Coherence.icache_resident p.kern ~cpu:0 ~line:l in
  Alcotest.(check bool) "LRU line 1 evicted" false (res 1);
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "line %d resident" l) true (res l))
    [ 0; 2; 3; 4 ];
  agree p

type mop = Data of int * int * int * bool | Fetch of int * int * int

let mixed_gen =
  QCheck2.Gen.(
    list_size (int_range 1 150)
      (let* tag = bool in
       let* cpu = int_range 0 1000 in
       if tag then
         let* line = int_range 0 (lines_in_play - 1) in
         let* off = int_range 0 15 in
         let* w = bool in
         return (Data (cpu, line, off, w))
       else
         let* addr = int_range 0 1023 in
         let* size = int_range 1 130 in
         return (Fetch (cpu, addr, size))))

let prop_icache_differential =
  QCheck2.Test.make
    ~name:
      "ifetch: flat == reference spec (latencies, stats, residency) with \
       interleaved data traffic across protocols x topologies" ~count:25
    mixed_gen
    (fun ops ->
      List.iter
        (fun (_, topology) ->
          List.iter
            (fun protocol ->
              let p = pair topology ~cache_capacity:8 ~icache:icfg ~protocol in
              let cpus = Topology.num_cpus topology in
              List.iter
                (function
                  | Data (cpu, line, off, w) ->
                    ignore
                      (step p ~cpu:(cpu mod cpus)
                         ~addr:((line * 128) + (off * 8))
                         ~is_write:w)
                  | Fetch (cpu, addr, size) ->
                    ignore (fetch p ~cpu:(cpu mod cpus) ~addr ~size))
                ops;
              agree ~lines:19 p)
            [ Coherence.Mesi; Coherence.Moesi ])
        topologies;
      true)

(* With the instruction side on, the fetch trace replays on the spec too,
   under the declared code layout and a permuted one. *)
let machine_icache =
  { Coherence.i_lines = 4; i_ways = Some 2; i_line_size = 32 }

let test_machine_fetch_replay () =
  let (_, r) as run = run_src_machine ~icache:machine_icache () in
  Alcotest.(check bool) "fetch trace non-empty" true
    (r.Machine.fetch_trace <> []);
  Alcotest.(check bool) "fetches counted" true
    (r.Machine.stats.Sim_stats.ifetches > 0);
  Alcotest.(check bool) "misses counted" true
    (r.Machine.stats.Sim_stats.imisses > 0);
  replays_on_spec run;
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let order =
    List.rev_map
      (fun (proc, b, _, _) -> (proc, b))
      (Machine.code_blocks
         (Machine.create
            (Machine.default_config (Topology.bus ~cpus:2 ()))
            program))
  in
  replays_on_spec (run_src_machine ~icache:machine_icache ~code_layout:order ())

let test_set_code_layout_validation () =
  let program = Typecheck.check (Parser.parse_program ~file:"t.mc" src) in
  let mk () =
    Machine.create
      (Machine.default_config (Topology.bus ~cpus:2 ()))
      program
  in
  let all =
    List.map (fun (proc, b, _, _) -> (proc, b)) (Machine.code_blocks (mk ()))
  in
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  (* a full permutation is accepted and actually moves the code *)
  let m = mk () in
  let before = Machine.code_blocks m in
  Machine.set_code_layout m (List.rev all);
  Alcotest.(check bool) "layout moved the blocks" true
    (Machine.code_blocks m <> before);
  expect_invalid "unknown procedure" (fun () ->
      Machine.set_code_layout (mk ()) [ ("nope", 0) ]);
  expect_invalid "unknown block" (fun () ->
      Machine.set_code_layout (mk ()) (("writer", 999) :: List.tl all));
  expect_invalid "duplicate block" (fun () ->
      Machine.set_code_layout (mk ()) (List.hd all :: all));
  expect_invalid "incomplete cover" (fun () ->
      Machine.set_code_layout (mk ()) (List.tl all));
  let m = mk () in
  ignore (Machine.run m);
  expect_invalid "relayout after run" (fun () ->
      Machine.set_code_layout m all)

let test_kstats_exposure () =
  let c =
    Coherence.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4 ()
  in
  ignore (Coherence.access c ~cpu:0 ~addr:0 ~size:8 ~is_write:true);
  let k = Coherence.kstats c in
  Alcotest.(check bool) "dir_live tracked" true (k.Coherence.k_dir_live >= 1);
  Alcotest.(check bool) "peak >= live" true
    (k.Coherence.k_dir_peak >= k.Coherence.k_dir_live)

(* ------------------------------------------------------------------ *)
(* Multi-level hierarchy. The L1 filter, the coherent L2 and the per-cell
   victim LLCs must behave identically in the kernel and the spec —
   per-access latencies, the per-level hit counters, L1 residency and LLC
   placement — across protocols, topologies, and associativities at every
   level. *)

let hier_variants =
  [
    ( "tiny",
      { Coherence.h_l1_lines = 1; h_l1_ways = Some 1; h_llc_lines = 2; h_llc_ways = Some 1 } );
    ( "small",
      { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = Some 2 } );
    ( "roomy",
      { Coherence.h_l1_lines = 4; h_l1_ways = None; h_llc_lines = 8; h_llc_ways = None } );
  ]

(* Sim_stats equality (inside [agree]) covers the per-level counters: l1/l2
   hits and local/remote LLC hits diverge structurally, not just in sums. *)
let run_both_hier ~topology ~protocol ~ways ~hierarchy trace =
  let p = pair topology ~cache_capacity:8 ?ways ~hierarchy ~protocol in
  run_trace p topology trace;
  agree p

let prop_hier_differential =
  QCheck2.Test.make
    ~name:
      "hierarchy: flat == reference spec (per-level latencies, counters, \
       L1/LLC residency) across protocols x topologies x associativities"
    ~count:25
    trace_gen
    (fun trace ->
      List.iter
        (fun (_, topology) ->
          List.iter
            (fun protocol ->
              List.iter
                (fun (_, ways) ->
                  List.iter
                    (fun (_, hierarchy) ->
                      run_both_hier ~topology ~protocol ~ways ~hierarchy trace)
                    hier_variants)
                assoc_variants)
            [ Coherence.Mesi; Coherence.Moesi ])
        topologies;
      true)

(* Pinned per-level semantics on a two-cell machine (superdome16: cells
   {0..7} and {8..15}). Walks one access sequence through L1 hit, L2 hit,
   victim-LLC fill, local and remote LLC hits, and the L1 write fast
   path, asserting the exact latency and counter at every step. *)
let test_hier_level_walk () =
  let topo = Topology.superdome ~cpus:16 () in
  let p =
    pair topo ~cache_capacity:2 ~ways:1
      ~hierarchy:
        { Coherence.h_l1_lines = 1; h_l1_ways = Some 1; h_llc_lines = 4; h_llc_ways = None }
  in
  let c = p.kern in
  Alcotest.(check bool) "hierarchy on" true (Coherence.has_hierarchy c);
  check_int "two cells" 2 (Coherence.num_cells c);
  let access cpu line w = step p ~cpu ~addr:(line * 128) ~is_write:w in
  let st cpu = Coherence.stats c ~cpu in
  (* cold miss straight to memory *)
  check_int "cold miss costs memory" 300 (access 0 0 false);
  (* L1 hit: the line was promoted on the fill *)
  check_int "L1 hit costs 1" 1 (access 0 0 false);
  check_int "l1_hits counted" 1 (st 0).Sim_stats.l1_hits;
  Alcotest.(check bool) "L1 resident" true (Coherence.l1_resident c ~cpu:0 ~line:0);
  (* a second line displaces the 1-line L1 but not the L2 *)
  check_int "second cold miss" 300 (access 0 1 false);
  Alcotest.(check bool) "L1 displaced" false (Coherence.l1_resident c ~cpu:0 ~line:0);
  check_int "L1-miss L2-hit costs l2_hit" 10 (access 0 0 false);
  check_int "l2_hits counted" 1 (st 0).Sim_stats.l2_hits;
  (* line 2 conflicts with line 0 (2 sets, 1 way): the dead victim drops
     into cell 0's LLC *)
  check_int "conflict miss" 300 (access 0 2 false);
  Alcotest.(check (option int)) "victim parked in cell 0" (Some 0)
    (Coherence.llc_cell c ~line:0);
  (* a CPU in the other cell re-fetches it: remote LLC hit, capped at
     memory latency (the crossbar is farther than local memory) *)
  check_int "remote LLC hit capped at memory" 300 (access 8 0 false);
  check_int "remote LLC hit counted" 1 (st 8).Sim_stats.llc_remote_hits;
  Alcotest.(check (option int)) "LLC copy consumed" None
    (Coherence.llc_cell c ~line:0);
  (* park a line in cell 1's LLC and take the local hit: an intra-cell
     transfer (200) beats memory (300). Lines 5 and 7 are untouched, so
     both fills go to memory and the victim's directory entry is dead. *)
  check_int "cold miss in cell 1" 300 (access 8 5 false);
  check_int "conflict evicts line 5 to cell 1's LLC" 300 (access 8 7 false);
  Alcotest.(check (option int)) "victim parked in cell 1" (Some 1)
    (Coherence.llc_cell c ~line:5);
  check_int "local LLC hit costs same_cell" 200 (access 8 5 false);
  check_int "local LLC hit counted" 1 (st 8).Sim_stats.llc_local_hits;
  (* E -> M silent upgrade is an L2 hit (it must reach the directory),
     then the M + L1-resident write takes the fast path *)
  check_int "silent upgrade costs l2_hit" 10 (access 8 0 true);
  check_int "upgrade counted as L2 hit" 1 (st 8).Sim_stats.l2_hits;
  check_int "M write through L1 costs 1" 1 (access 8 0 true);
  check_int "fast path counted as L1 hit" 1 (st 8).Sim_stats.l1_hits;
  agree p

(* The geometry check is one function the kernel and the spec share;
   each constructor is checked to go through it. *)
let test_hier_validation create () =
  let expect_invalid label h =
    match create h with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  expect_invalid "zero L1 lines"
    { Coherence.h_l1_lines = 0; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = None };
  expect_invalid "zero LLC lines"
    { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 0; h_llc_ways = None };
  expect_invalid "bad L1 associativity"
    { Coherence.h_l1_lines = 2; h_l1_ways = Some 3; h_llc_lines = 4; h_llc_ways = None };
  create { Coherence.h_l1_lines = 2; h_l1_ways = None; h_llc_lines = 4; h_llc_ways = None }

let kernel_with_hierarchy hierarchy =
  let c =
    Coherence.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
      ~hierarchy ()
  in
  Alcotest.(check bool) "valid geometry accepted" true (Coherence.has_hierarchy c)

let spec_with_hierarchy hierarchy =
  ignore
    (Spec.create (Topology.bus ~cpus:2 ()) ~line_size:128 ~cache_capacity:4
       ~hierarchy ())

(* Exhaustive interleaving check (the Modelcheck analog for the
   hierarchy): breadth-first exploration of every reachable spec state of
   a 2-CPU x 3-line multi-level config whose geometry is fully
   deterministic (direct-mapped at every level), checking the kernel
   against the spec on every edge and pinning the reachable-state count
   against drift. *)

let hier_mc_lines = 3
let hier_mc_cpus = 2

let hier_mc_mk protocol =
  pair (Topology.bus ~cpus:hier_mc_cpus ()) ~cache_capacity:2 ~ways:1
    ~hierarchy:
      { Coherence.h_l1_lines = 1; h_l1_ways = Some 1; h_llc_lines = 1; h_llc_ways = Some 1 }
    ~protocol

(* Canonical observable state: with every level direct-mapped there is no
   hidden replacement state, so the introspection determines future
   behaviour completely. *)
let hier_mc_key sp =
  let buf = Buffer.create 64 in
  for line = 0 to hier_mc_lines - 1 do
    Buffer.add_string buf
      (Printf.sprintf "o%s;s%s;t%b;l%s|"
         (match Spec.owner sp ~line with None -> "-" | Some o -> string_of_int o)
         (String.concat "," (List.map string_of_int (Spec.sharers sp ~line)))
         (Spec.touched sp ~line)
         (match Spec.llc_cell sp ~line with None -> "-" | Some cl -> string_of_int cl));
    for cpu = 0 to hier_mc_cpus - 1 do
      Buffer.add_string buf
        (Printf.sprintf "c%s;r%b;h%s|"
           (match Spec.cache_state sp ~cpu ~line with
           | None -> "-"
           | Some Coherence.Modified -> "M"
           | Some Coherence.Exclusive -> "E"
           | Some Coherence.Shared -> "S"
           | Some Coherence.Owned -> "O")
           (Spec.l1_resident sp ~cpu ~line)
           (match Spec.inv_hint sp ~cpu ~line with
           | None -> "-"
           | Some (off, len) -> Printf.sprintf "%d.%d" off len))
    done
  done;
  Buffer.contents buf

let test_hier_exhaustive protocol pinned () =
  let alphabet =
    List.concat_map
      (fun cpu ->
        List.concat_map
          (fun line -> [ (cpu, line, false); (cpu, line, true) ])
          (List.init hier_mc_lines Fun.id))
      (List.init hier_mc_cpus Fun.id)
  in
  (* The frontier keeps each state's (minimal) witness trace and its spec
     state. An edge steps the spec state once and replays the extended
     trace on a fresh kernel: its last latency must match the spec's and
     the end states must agree (earlier steps were checked on the edges
     that first reached their prefixes). *)
  let visited = Hashtbl.create 1024 in
  let frontier = Queue.create () in
  let visit trace spec =
    let k = hier_mc_key spec in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.replace visited k ();
      Queue.add (trace, spec) frontier
    end
  in
  visit [] (hier_mc_mk protocol).spec;
  while not (Queue.is_empty frontier) do
    let trace, spec = Queue.pop frontier in
    List.iter
      (fun ((cpu, line, w) as op) ->
        let trace = trace @ [ op ] in
        let p = hier_mc_mk protocol in
        let kernel_lat =
          List.fold_left
            (fun _ (cpu, line, w) ->
              Coherence.access p.kern ~cpu ~addr:(line * 128) ~size:8 ~is_write:w)
            0 trace
        in
        let spec, spec_lat = Spec.access spec ~cpu ~addr:(line * 128) ~size:8 ~is_write:w in
        if kernel_lat <> spec_lat then
          Alcotest.failf "latency diverged after %d steps: kernel %d, spec %d"
            (List.length trace) kernel_lat spec_lat;
        p.spec <- spec;
        agree ~lines:hier_mc_lines p;
        visit trace spec)
      alphabet
  done;
  check_int "pinned reachable-state count" pinned (Hashtbl.length visited)

(* Reachable-state pins for the exhaustive multi-level configs. Any
   semantic drift in the hierarchy (L1 filtering, LLC fill/consume, the
   directory interplay) changes these counts and fails loudly. *)
let hier_mc_pin_mesi = 988
let hier_mc_pin_moesi = 1838

let suites =
  [
    ( "sim.kernel.flat_tab",
      [
        QCheck_alcotest.to_alcotest prop_flat_tab_matches_hashtbl;
        Alcotest.test_case "grow and backward-shift delete" `Quick
          test_flat_tab_grow_and_shift;
        Alcotest.test_case "backward-shift delete across the wrap boundary"
          `Quick test_flat_tab_wraparound_delete;
      ] );
    ( "sim.kernel.masks",
      [
        Alcotest.test_case "sharer mask across the 62-bit word boundary"
          `Quick test_multiword_sharer_mask;
        Alcotest.test_case "clearing the last sharer kills the entry" `Quick
          test_clear_last_sharer_kills_entry;
      ] );
    ("sim.kernel.differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
    ( "sim.kernel.invariants",
      [ QCheck_alcotest.to_alcotest prop_directory_invariants ] );
    ( "sim.kernel.hints",
      [
        Alcotest.test_case "stale hint dropped with episode (kernel and spec)"
          `Quick test_hint_staleness;
        Alcotest.test_case "live hint still classifies (kernel and spec)" `Quick
          test_hint_live_episode;
      ] );
    ( "sim.kernel.cache",
      [
        Alcotest.test_case "remote downgrade refreshes the owner's LRU" `Quick
          test_downgrade_refreshes_lru;
        Alcotest.test_case "negative address rejected (kernel and spec)" `Quick
          test_negative_address;
      ] );
    ( "sim.kernel.machine",
      [
        Alcotest.test_case "end-to-end trace replay on the spec" `Quick
          test_machine_trace_replay;
        Alcotest.test_case "kstats exposure" `Quick test_kstats_exposure;
      ] );
    ( "sim.kernel.icache",
      [
        Alcotest.test_case "ifetch without an icache is rejected (kernel and spec)"
          `Quick test_ifetch_unconfigured;
        Alcotest.test_case "line walk, counters, privacy (kernel and spec)" `Quick
          test_ifetch_line_walk;
        Alcotest.test_case "true-LRU replacement (kernel and spec)" `Quick
          test_icache_lru;
        QCheck_alcotest.to_alcotest prop_icache_differential;
        Alcotest.test_case "machine fetch-trace based replay on the spec" `Quick
          test_machine_fetch_replay;
        Alcotest.test_case "set_code_layout validation" `Quick
          test_set_code_layout_validation;
      ] );
    ( "sim.kernel.hierarchy",
      [
        QCheck_alcotest.to_alcotest prop_hier_differential;
        Alcotest.test_case "per-level latency walk on two cells (kernel and spec)"
          `Quick test_hier_level_walk;
        Alcotest.test_case "geometry validation (flat kernel)" `Quick
          (test_hier_validation kernel_with_hierarchy);
        Alcotest.test_case "geometry validation (reference spec)" `Quick
          (test_hier_validation spec_with_hierarchy);
        Alcotest.test_case "exhaustive interleavings, pinned states (MESI)"
          `Quick
          (test_hier_exhaustive Coherence.Mesi hier_mc_pin_mesi);
        Alcotest.test_case "exhaustive interleavings, pinned states (MOESI)"
          `Quick
          (test_hier_exhaustive Coherence.Moesi hier_mc_pin_moesi);
      ] );
  ]
