module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency

(* Decay weights are fixed-point num/1024 so the weighted window CC is
   exact integer arithmetic: no float summation, hence no dependence on
   the order intervals are merged in. 1024 gives ~3 decimal digits of
   decay resolution, plenty for a drift trigger. *)
let weight_den = 1024

(* One interval's CC, memoized on the interval's sample total: the
   pairs as dense ids into the window's pair table, with their counts. *)
type memo = { m_total : int; m_ids : int array; m_counts : int array }

(* A weighted CC vector: packed pair keys ascending, counts > 0. *)
type vec = { keys : int array; vals : int array }

type t = {
  w_interval : int;
  w_window : int;  (* length in intervals *)
  w_decay : float;  (* per-interval-of-age multiplier, in (0, 1] *)
  master : Sample.binner;  (* every live (non-retired) sample *)
  memos : (int, memo) Hashtbl.t;  (* interval idx -> memo *)
  (* Pair interning: every pair some memo holds has a dense id, so the
     weighted sum accumulates into an int array instead of a map. [pair_refs]
     counts the memos holding an id; an id no memo holds is unbound and
     goes back on [free], so the id space stays within the peak number of
     live pairs however many distinct lines stream past. *)
  ids : Slo_util.Flat_tab.t;  (* pair key -> id *)
  mutable pair_key : int array;  (* id -> pair key *)
  mutable pair_refs : int array;  (* id -> memos holding it *)
  mutable pair_acc : int array;  (* id -> weighted sum; all 0 between calls *)
  mutable free : int list;
  mutable n_ids : int;  (* ids handed out so far (high-water mark) *)
  mutable order : int array;  (* bound ids, ascending by key *)
  mutable order_ok : bool;
  (* scratch for the kernel's output before it is sized into a memo *)
  mutable buf_keys : int array;
  mutable buf_vals : int array;
  mutable newest : int;  (* max interval idx accepted *)
  mutable started : bool;  (* false until the first sample *)
  mutable retired : int;
  mutable late : int;
}

let make ~decay ~window ~newest ~started master =
  { w_interval = Sample.interval master; w_window = window; w_decay = decay;
    master;
    memos = Hashtbl.create 64; ids = Slo_util.Flat_tab.create ~capacity:256 ();
    pair_key = Array.make 256 0; pair_refs = Array.make 256 0;
    pair_acc = Array.make 256 0;
    free = []; n_ids = 0; order = [||]; order_ok = true;
    buf_keys = Array.make 256 0; buf_vals = Array.make 256 0; newest; started;
    retired = 0; late = 0 }

let check_decay what decay =
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg (what ^ ": decay outside (0, 1]")

let create ?(decay = 1.0) ~interval ~window () =
  if window <= 0 then invalid_arg "Window.create: window <= 0";
  check_decay "Window.create" decay;
  make ~decay ~window ~newest:0 ~started:false (Sample.binner ~interval)

let interval w = w.w_interval
let window_length w = w.w_window
let decay w = w.w_decay
let newest w = if w.started then Some w.newest else None
let live_samples w = Sample.fed w.master
let live_intervals w = List.length (Sample.binned_idx w.master)
let retired w = w.retired
let late w = w.late
let master w = w.master
let live_pairs w = Slo_util.Flat_tab.length w.ids
let pair_slots w = Array.length w.pair_key

let weight w ~age =
  if age < 0 then invalid_arg "Window.weight: age < 0";
  let v =
    Float.round (float_of_int weight_den *. (w.w_decay ** float_of_int age))
  in
  int_of_float v

(* ------------------------------------------------------------------ *)
(* Pair interning *)

(* Doubling; every array starts non-empty. *)
let grow a = Array.append a (Array.make (Array.length a) 0)

let intern w k =
  let id = Slo_util.Flat_tab.find w.ids k ~default:(-1) in
  if id >= 0 then begin
    w.pair_refs.(id) <- w.pair_refs.(id) + 1;
    id
  end
  else begin
    let id =
      match w.free with
      | id :: rest ->
        w.free <- rest;
        id
      | [] ->
        if w.n_ids = Array.length w.pair_key then begin
          w.pair_key <- grow w.pair_key;
          w.pair_refs <- grow w.pair_refs;
          w.pair_acc <- grow w.pair_acc
        end;
        w.n_ids <- w.n_ids + 1;
        w.n_ids - 1
    in
    Slo_util.Flat_tab.set w.ids k id;
    w.pair_key.(id) <- k;
    w.pair_refs.(id) <- 1;
    w.order_ok <- false;
    id
  end

let release w m =
  Array.iter
    (fun id ->
      w.pair_refs.(id) <- w.pair_refs.(id) - 1;
      if w.pair_refs.(id) = 0 then begin
        Slo_util.Flat_tab.remove w.ids w.pair_key.(id);
        w.free <- id :: w.free;
        w.order_ok <- false
      end)
    m.m_ids

let drop_memo w idx =
  match Hashtbl.find_opt w.memos idx with
  | Some m ->
    release w m;
    Hashtbl.remove w.memos idx
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ingest and retirement *)

(* Retiring an interval is eviction-by-subtraction: rebuild that
   interval's contribution as a one-interval binner (feed_n per histogram
   entry — O(entries), not O(samples)) and [Sample.retract] it from the
   master. The retract law guarantees the master is then structurally the
   binner that never saw those samples, which the bench serve gate checks
   against a from-scratch re-bin. *)
let retire_interval w idx tbl =
  let tmp = Sample.binner ~interval:w.w_interval in
  List.iter
    (fun (line, fs) ->
      List.iter
        (fun (cpu, count) ->
          Sample.feed_n tmp ~cpu ~itc:(idx * w.w_interval) ~line ~count)
        fs)
    (Sample.line_freqs tbl);
  Sample.retract w.master tmp;
  drop_memo w idx;
  w.retired <- w.retired + 1

let retire_below_watermark w =
  let mark = w.newest - w.w_window in
  List.iter
    (fun (idx, tbl) -> if idx <= mark then retire_interval w idx tbl)
    (Sample.binned_idx w.master)

let feed w ~cpu ~itc ~line =
  let idx = Sample.floor_div itc w.w_interval in
  if w.started && idx <= w.newest - w.w_window then begin
    w.late <- w.late + 1;
    false
  end
  else begin
    Sample.feed_raw w.master ~cpu ~itc ~line;
    if (not w.started) || idx > w.newest then begin
      w.newest <- idx;
      w.started <- true;
      retire_below_watermark w
    end;
    true
  end

(* ------------------------------------------------------------------ *)
(* The weighted vector *)

let interval_memo w idx tbl =
  let total = Sample.total_samples tbl in
  match Hashtbl.find_opt w.memos idx with
  | Some m when m.m_total = total -> m
  | old ->
    let n = ref 0 in
    Cc.iter_interval tbl (fun k v ->
        if !n = Array.length w.buf_keys then begin
          w.buf_keys <- grow w.buf_keys;
          w.buf_vals <- grow w.buf_vals
        end;
        w.buf_keys.(!n) <- k;
        w.buf_vals.(!n) <- v;
        incr n);
    let m =
      { m_total = total;
        m_ids = Array.init !n (fun i -> intern w w.buf_keys.(i));
        m_counts = Array.sub w.buf_vals 0 !n }
    in
    (* intern the new pairs before releasing the old ones, so a pair in
       both keeps its id *)
    Option.iter (release w) old;
    Hashtbl.replace w.memos idx m;
    m

let sort_order w =
  if not w.order_ok then begin
    let ids = ref [] in
    for id = w.n_ids - 1 downto 0 do
      if w.pair_refs.(id) > 0 then ids := id :: !ids
    done;
    let order = Array.of_list !ids in
    Array.sort (fun a b -> Int.compare w.pair_key.(a) w.pair_key.(b)) order;
    w.order <- order;
    w.order_ok <- true
  end

let weighted w =
  List.iter
    (fun (idx, tbl) ->
      let num = weight w ~age:(w.newest - idx) in
      if num > 0 then begin
        let m = interval_memo w idx tbl in
        Array.iteri
          (fun i id ->
            let v = Cc.scale m.m_counts.(i) ~num ~den:weight_den in
            w.pair_acc.(id) <- Cc.sat_add w.pair_acc.(id) v)
          m.m_ids
      end)
    (Sample.binned_idx w.master);
  sort_order w;
  let n =
    Array.fold_left
      (fun n id -> if w.pair_acc.(id) > 0 then n + 1 else n)
      0 w.order
  in
  let keys = Array.make n 0 and vals = Array.make n 0 in
  let j = ref 0 in
  Array.iter
    (fun id ->
      let v = w.pair_acc.(id) in
      if v > 0 then begin
        keys.(!j) <- w.pair_key.(id);
        vals.(!j) <- v;
        incr j;
        w.pair_acc.(id) <- 0
      end)
    w.order;
  { keys; vals }

let empty = { keys = [||]; vals = [||] }
let cc_of_vec v = Cc.of_keyed v.keys v.vals

let vec_of_cc cc =
  let kv = ref [] in
  Cc.iter cc (fun k v -> kv := (k, v) :: !kv);
  let a = Array.of_list !kv in
  Array.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) a;
  { keys = Array.map fst a; vals = Array.map snd a }

(* A vector's mass: the float sum of its counts in decreasing-count
   order, the order [Cc.pairs] lists a map's counts in, so the drift
   agrees to the bit with one taken over [Cc.pairs] lists. While the
   integer total stays within 2^53, every partial sum in any order is an
   exactly representable integer, so the float total is just the integer
   total; only beyond that (saturated or near-saturated counts) are the
   counts sorted to replay that order. Equal counts add identically in
   either order, so sorting by count alone is enough. *)
let exact_limit = 1 lsl 53

let mass v =
  let s = ref 0 and exact = ref true in
  Array.iter
    (fun x -> if x > exact_limit - !s then exact := false else s := !s + x)
    v.vals;
  if !exact then float_of_int !s
  else begin
    let d = Array.copy v.vals in
    Array.sort (fun a b -> Int.compare b a) d;
    Array.fold_left (fun acc x -> acc +. float_of_int x) 0.0 d
  end

(* Shape drift: half the L1 distance between the two vectors normalized
   to unit mass — 0 when the sharing pattern is identical (even at a
   different sample volume: another client feeding the same workload
   scales every count but moves no mass), 1 when the patterns are
   disjoint. Scale-invariance matters for the trigger: layout decisions
   follow the {e shape} of the CC map, so growth alone must not burn
   re-searches. The union of keys is walked in ascending key order, so
   the float accumulation is order-deterministic; a key absent from both
   vectors would add exactly +0.0 and is never visited. *)
let drift a b =
  let ta = mass a and tb = mass b in
  if ta <= 0.0 && tb <= 0.0 then 0.0
  else if ta <= 0.0 || tb <= 0.0 then 1.0
  else begin
    let na = Array.length a.keys and nb = Array.length b.keys in
    let i = ref 0 and j = ref 0 and diff = ref 0.0 in
    let term x y =
      abs_float ((float_of_int x /. ta) -. (float_of_int y /. tb))
    in
    while !i < na || !j < nb do
      let ka = if !i < na then a.keys.(!i) else max_int
      and kb = if !j < nb then b.keys.(!j) else max_int in
      if ka < kb then begin
        diff := !diff +. term a.vals.(!i) 0;
        incr i
      end
      else if kb < ka then begin
        diff := !diff +. term 0 b.vals.(!j);
        incr j
      end
      else begin
        diff := !diff +. term a.vals.(!i) b.vals.(!j);
        incr i;
        incr j
      end
    done;
    !diff /. 2.0
  end

let restore ?(decay = 1.0) ~window ~newest binner =
  if window <= 0 then invalid_arg "Window.restore: window <= 0";
  check_decay "Window.restore" decay;
  let live = Sample.binned_idx binner in
  List.iter
    (fun (idx, _) ->
      if idx > newest || idx <= newest - window then
        invalid_arg
          (Printf.sprintf
             "Window.restore: interval %d outside the window (%d, %d]" idx
             (newest - window) newest))
    live;
  make ~decay ~window ~newest ~started:(live <> []) binner
