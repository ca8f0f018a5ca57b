module Obs = Slo_obs.Obs

module Flat_tab = Slo_util.Flat_tab

(* Packed unordered-pair key -> CC. Lines are identifiers bounded by
   [Sample.max_id] (31 bits), so [(l1 lsl 31) lor l2] with [l1 <= l2] is a
   non-negative 62-bit int: a flat-table key with no tuple box, whose
   integer order is the lexicographic order of the (l1, l2) pair. *)
type t = { tbl : Flat_tab.t }

let key l1 l2 =
  if l1 <= l2 then (l1 lsl Sample.id_bits) lor l2
  else (l2 lsl Sample.id_bits) lor l1

let key_lines k = (k lsr Sample.id_bits, k land Sample.max_id)

let in_range l = l >= 0 && l <= Sample.max_id

let cc t l1 l2 =
  if in_range l1 && in_range l2 then Flat_tab.find t.tbl (key l1 l2) ~default:0
  else 0

(* Counts are non-negative throughout, so saturation at [max_int] keeps
   addition associative and commutative: min (a + b) max_int composes the
   same way in any grouping. That is what lets the sharded reduce below
   merge partial maps in any order and still match the serial path. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p < 0 || p / b <> a then max_int else p

(* A product that saturates stays saturated (max_int, not max_int / den):
   once a count is "infinite" scaling cannot un-saturate it. *)
let scale v ~num ~den =
  let p = sat_mul v num in
  if p = max_int then max_int else p / den

(* One probe: both operands are non-negative, so a wrapped sum is negative
   and is clamped back to [max_int]. *)
let add_key t k v =
  if v > 0 && Flat_tab.add t.tbl k v < 0 then Flat_tab.set t.tbl k max_int

let add t l1 l2 v =
  if not (in_range l1 && in_range l2) then
    invalid_arg "Code_concurrency.add: line out of range";
  add_key t (key l1 l2) v

(* Per-line per-interval frequency vector. [cpus]/[by_cpu] are the
   (cpu, count) entries in cpu order, as [Sample.line_freqs] yields them;
   [counts] are the same counts sorted ascending, with prefix sums:
   prefix.(i) = sum of the first i entries. *)
type vec = {
  cpus : int array;
  by_cpu : int array;
  counts : int array;
  prefix : int array;
  total : int;
}

let vec_of_freqs freqs =
  let n = List.length freqs in
  let cpus = Array.make n 0 and by_cpu = Array.make n 0 in
  List.iteri
    (fun i (cpu, c) ->
      cpus.(i) <- cpu;
      by_cpu.(i) <- c)
    freqs;
  let counts = Array.copy by_cpu in
  Array.sort Int.compare counts;
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- sat_add prefix.(i) counts.(i)
  done;
  { cpus; by_cpu; counts; prefix; total = prefix.(n) }

(* Σ_{m,n} min(a_m, b_n) over all index pairs (including same-cpu). For
   each x of [a] (ascending), the b-entries <= x contribute their prefix
   sum and the rest contribute x each; the split point only moves right as
   x grows, so one monotone pointer tracks it.
   Profile-scale frequencies can push [x * (n - j)] past [max_int]; the
   kernel saturates instead of wrapping negative. *)
let sum_min_all a b =
  let n = Array.length b.counts in
  let j = ref 0 and acc = ref 0 in
  Array.iter
    (fun x ->
      while !j < n && b.counts.(!j) <= x do incr j done;
      acc := sat_add !acc (sat_add b.prefix.(!j) (sat_mul x (n - !j))))
    a.counts;
  !acc

(* Σ over cpus present in both vectors of min(a_cpu, b_cpu): a merge-join
   of the two cpu-ordered arrays. *)
let sum_min_same_cpu a b =
  let na = Array.length a.cpus and nb = Array.length b.cpus in
  let i = ref 0 and j = ref 0 and acc = ref 0 in
  while !i < na && !j < nb do
    let ca = a.cpus.(!i) and cb = b.cpus.(!j) in
    if ca < cb then incr i
    else if ca > cb then incr j
    else begin
      acc := sat_add !acc (min a.by_cpu.(!i) b.by_cpu.(!j));
      incr i;
      incr j
    end
  done;
  !acc

let iter_interval tbl f =
  let vecs =
    Array.of_list
      (List.map
         (fun (line, fs) -> (line, vec_of_freqs fs))
         (Sample.line_freqs tbl))
  in
  let n = Array.length vecs in
  for i = 0 to n - 1 do
    let l1, v1 = vecs.(i) in
    let base = l1 lsl Sample.id_bits in
    (* Diagonal: two different CPUs executing the same line. *)
    let d = sum_min_all v1 v1 - v1.total in
    if d > 0 then f (base lor l1) d;
    for j = i + 1 to n - 1 do
      let l2, v2 = vecs.(j) in
      let v = sum_min_all v1 v2 - sum_min_same_cpu v1 v2 in
      if v > 0 then f (base lor l2) v
    done
  done

let cc_of_interval t tbl = iter_interval tbl (add_key t)

let create () = { tbl = Flat_tab.create ~capacity:256 () }

let of_interval tbl =
  let t = create () in
  cc_of_interval t tbl;
  t

let iter t f = Flat_tab.iter t.tbl f
let merge_into dst src = iter src (add_key dst)

(* Deterministic chunking: consecutive runs of [n] tables, in order. The
   chunk boundaries depend only on the input list, never on the pool, so
   the partial maps — and, merge being associative and commutative, their
   reduction — are identical for every worker count. *)
let chunks_of n xs =
  let rec go acc cur k = function
    | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
    | x :: rest ->
      if k + 1 = n then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let default_chunk = 32

let compute_tables ?pool ?(chunk = default_chunk) tables =
  if chunk <= 0 then invalid_arg "Code_concurrency.compute_tables: chunk <= 0";
  Obs.incr ~by:(List.length tables) "cc.intervals";
  Obs.incr
    ~by:(List.fold_left (fun acc tbl -> acc + Sample.total_samples tbl) 0 tables)
    "cc.samples";
  (match tables with
  | [] -> ()
  | _ ->
    let peak =
      List.fold_left (fun m tbl -> max m (Sample.entries tbl)) 0 tables
    in
    Obs.set_gauge "cc.table.peak_entries" (float_of_int peak));
  Obs.time "cc.compute_s" (fun () ->
      let compute_chunk tbls =
        let t = create () in
        List.iter (cc_of_interval t) tbls;
        t
      in
      let chunks = chunks_of chunk tables in
      let parts =
        match pool with
        | None -> List.map compute_chunk chunks
        | Some pool -> Slo_exec.Pool.map pool compute_chunk chunks
      in
      let acc = create () in
      List.iter (merge_into acc) parts;
      acc)

let compute ~interval samples = compute_tables (Sample.bin ~interval samples)

let compute_stream ?pool ?chunk ~interval iter =
  let tables =
    Obs.time "cc.ingest_s" (fun () ->
        let b = Sample.binner ~interval in
        iter (Sample.feed b);
        Sample.binned b)
  in
  compute_tables ?pool ?chunk tables

(* Index ranges of [range] consecutive samples: [0,range), [range,2*range),
   ... Like [chunks_of], the boundaries depend only on the store length,
   never on the pool, and absorbing the per-range binners is a pointwise
   histogram sum — commutative — so the binned tables are identical for
   every pool size and range width. *)
let default_bin_range = 1 lsl 16

let compute_store ?pool ?chunk ?(range = default_bin_range) ~interval store =
  if range <= 0 then invalid_arg "Code_concurrency.compute_store: range <= 0";
  if interval <= 0 then
    invalid_arg "Code_concurrency.compute_store: interval <= 0";
  let n = Sample_store.length store in
  let tables =
    Obs.time "cc.ingest_s" (fun () ->
        let bin_range (lo, hi) =
          let b = Sample.binner ~interval in
          for i = lo to hi - 1 do
            Sample.feed_raw b ~cpu:(Sample_store.cpu store i)
              ~itc:(Sample_store.itc store i)
              ~line:(Sample_store.line store i)
          done;
          b
        in
        let rec ranges lo =
          if lo >= n then [] else (lo, min n (lo + range)) :: ranges (lo + range)
        in
        let parts =
          match pool with
          | None -> List.map bin_range (ranges 0)
          | Some pool -> Slo_exec.Pool.map pool bin_range (ranges 0)
        in
        match parts with
        | [] -> []
        | b0 :: rest ->
          List.iter (Sample.absorb b0) rest;
          Sample.binned b0)
  in
  compute_tables ?pool ?chunk tables

(* Decreasing CC, ties by key: the packed key orders as the (l1, l2)
   pair does. *)
let pairs t =
  let a = Array.make (Flat_tab.length t.tbl) (0, 0) and n = ref 0 in
  iter t (fun k v ->
      a.(!n) <- (k, v);
      incr n);
  Array.sort
    (fun (k1, v1) (k2, v2) ->
      match Int.compare v2 v1 with 0 -> Int.compare k1 k2 | c -> c)
    a;
  Array.fold_right (fun (k, v) acc -> (key_lines k, v) :: acc) a []

let top t ~k =
  if k < 0 then invalid_arg "Code_concurrency.top: k < 0";
  List.filteri (fun i _ -> i < k) (pairs t)

let lines t =
  Flat_tab.fold t.tbl ~init:[] ~f:(fun acc k _ ->
      let l1, l2 = key_lines k in
      l1 :: l2 :: acc)
  |> List.sort_uniq Int.compare

let merge a b =
  let t = { tbl = Flat_tab.create ~capacity:(Flat_tab.length a.tbl) () } in
  merge_into t a;
  merge_into t b;
  t

let of_keyed keys counts =
  if Array.length keys <> Array.length counts then
    invalid_arg "Code_concurrency.of_keyed: length mismatch";
  let t = { tbl = Flat_tab.create ~capacity:(Array.length keys) () } in
  Array.iteri
    (fun i k ->
      if k < 0 || k lsr Sample.id_bits > k land Sample.max_id then
        invalid_arg "Code_concurrency.of_keyed: not a pair key";
      add_key t k counts.(i))
    keys;
  t

(* Fixed-point decay weighting for the sliding-window service: integer
   num/den avoids float summation, so the weighted sum over a window is
   exactly reproducible whatever order the intervals were merged in. *)
let merge_scaled dst src ~num ~den =
  if num < 0 then invalid_arg "Code_concurrency.merge_scaled: num < 0";
  if den <= 0 then invalid_arg "Code_concurrency.merge_scaled: den <= 0";
  iter src (fun k v -> add_key dst k (scale v ~num ~den))

let pp ppf t =
  Format.fprintf ppf "@[<v>concurrency map (%d pairs):" (Flat_tab.length t.tbl);
  List.iter
    (fun ((l1, l2), v) -> Format.fprintf ppf "@,lines %d x %d: %d" l1 l2 v)
    (pairs t);
  Format.fprintf ppf "@]"

module For_tests = struct
  let sum_min_against b x =
    sum_min_all (vec_of_freqs [ (0, x) ]) (vec_of_freqs b)

  let sum_min_all a b = sum_min_all (vec_of_freqs a) (vec_of_freqs b)
  let add = add
  let sat_mul = sat_mul
end
