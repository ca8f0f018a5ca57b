module Sample = Slo_concurrency.Sample

type t = { tbl : (int * int, int) Hashtbl.t }

let key l1 l2 = if l1 <= l2 then (l1, l2) else (l2, l1)

let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p < 0 || p / b <> a then max_int else p

let add t l1 l2 v =
  if v > 0 then begin
    let k = key l1 l2 in
    let cur = try Hashtbl.find t.tbl k with Not_found -> 0 in
    Hashtbl.replace t.tbl k (sat_add cur v)
  end

(* Per-line frequency vector sorted by count, with prefix sums. *)
type vec = { cpus : int array; counts : int array; prefix : int array; total : int }

let vec_of_freqs freqs =
  let arr = Array.of_list freqs in
  Array.sort (fun (_, a) (_, b) -> compare a b) arr;
  let n = Array.length arr in
  let cpus = Array.map fst arr and counts = Array.map snd arr in
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- sat_add prefix.(i) counts.(i)
  done;
  { cpus; counts; prefix; total = prefix.(n) }

(* Σ_n min(x, b_n) via binary search for the first entry > x. *)
let sum_min_against b x =
  let n = Array.length b.counts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if b.counts.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  sat_add b.prefix.(!lo) (sat_mul x (n - !lo))

let sum_min_all a b =
  Array.fold_left (fun acc x -> sat_add acc (sum_min_against b x)) 0 a.counts

let sum_min_same_cpu a b =
  let bmap = Hashtbl.create 16 in
  Array.iteri (fun i cpu -> Hashtbl.replace bmap cpu b.counts.(i)) b.cpus;
  let acc = ref 0 in
  Array.iteri
    (fun i cpu ->
      match Hashtbl.find_opt bmap cpu with
      | Some bc -> acc := sat_add !acc (min a.counts.(i) bc)
      | None -> ())
    a.cpus;
  !acc

let create () = { tbl = Hashtbl.create 256 }

let of_interval tbl =
  let t = create () in
  let vecs =
    List.map (fun (line, fs) -> (line, vec_of_freqs fs)) (Sample.line_freqs tbl)
  in
  let rec over_pairs = function
    | [] -> ()
    | (l1, v1) :: rest ->
      add t l1 l1 (sum_min_all v1 v1 - v1.total);
      List.iter
        (fun (l2, v2) -> add t l1 l2 (sum_min_all v1 v2 - sum_min_same_cpu v1 v2))
        rest;
      over_pairs rest
  in
  over_pairs vecs;
  t

let merge_into dst src = Hashtbl.iter (fun (l1, l2) v -> add dst l1 l2 v) src.tbl

let merge a b =
  let t = { tbl = Hashtbl.copy a.tbl } in
  merge_into t b;
  t

let merge_scaled dst src ~num ~den =
  Hashtbl.iter
    (fun (l1, l2) v ->
      let p = sat_mul v num in
      add dst l1 l2 (if p = max_int then max_int else p / den))
    src.tbl

let pairs t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match compare v2 v1 with 0 -> compare k1 k2 | c -> c)

let weighted ~decay ~newest binner =
  let acc = create () in
  List.iter
    (fun (idx, tbl) ->
      let num =
        int_of_float (Float.round (1024.0 *. (decay ** float_of_int (newest - idx))))
      in
      if num > 0 then merge_scaled acc (of_interval tbl) ~num ~den:1024)
    (Sample.binned_idx binner);
  acc

let drift a b =
  let pa = pairs a and pb = pairs b in
  let total ps = List.fold_left (fun acc (_, v) -> acc +. float_of_int v) 0.0 ps in
  let ta = total pa and tb = total pb in
  if ta <= 0.0 && tb <= 0.0 then 0.0
  else if ta <= 0.0 || tb <= 0.0 then 1.0
  else begin
    let tbl = Hashtbl.create 256 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k (v, 0)) pa;
    List.iter
      (fun (k, v) ->
        let x = match Hashtbl.find_opt tbl k with Some (x, _) -> x | None -> 0 in
        Hashtbl.replace tbl k (x, v))
      pb;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
    let diff =
      List.fold_left
        (fun acc k ->
          let x, y = Hashtbl.find tbl k in
          acc +. abs_float ((float_of_int x /. ta) -. (float_of_int y /. tb)))
        0.0 keys
    in
    diff /. 2.0
  end
