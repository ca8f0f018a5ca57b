(* Binary min-heap over three parallel int arrays. Sifts move a hole
   instead of swapping, so each level costs one three-array copy and the
   moving key stays in registers. *)

type t = {
  mutable clock : int array;
  mutable seq : int array;
  mutable id : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create ~capacity =
  let cap = max 1 capacity in
  { clock = Array.make cap 0; seq = Array.make cap 0; id = Array.make cap 0;
    len = 0; next_seq = 0 }

let is_empty q = q.len = 0
let size q = q.len

let fresh_seq q =
  let s = q.next_seq in
  q.next_seq <- s + 1;
  s

let check_nonempty q what =
  if q.len = 0 then invalid_arg ("Runq." ^ what ^ ": empty queue")

let move q ~src ~dst =
  q.clock.(dst) <- q.clock.(src);
  q.seq.(dst) <- q.seq.(src);
  q.id.(dst) <- q.id.(src)

let set q i c s v =
  q.clock.(i) <- c;
  q.seq.(i) <- s;
  q.id.(i) <- v

(* Is slot [i]'s key below [(c, s)]? *)
let below q i c s = q.clock.(i) < c || (q.clock.(i) = c && q.seq.(i) < s)

(* Place key [(c, s)] with id [v] into the hole at [i], moving it down. *)
let rec sift_down q i c s v =
  let l = (2 * i) + 1 in
  if l >= q.len then set q i c s v
  else
    let r = l + 1 in
    let m =
      if r < q.len && below q r q.clock.(l) q.seq.(l) then r else l
    in
    if below q m c s then begin
      move q ~src:m ~dst:i;
      sift_down q m c s v
    end
    else set q i c s v

let rec sift_up q i c s v =
  if i = 0 then set q i c s v
  else
    let p = (i - 1) / 2 in
    if below q p c s then set q i c s v
    else begin
      move q ~src:p ~dst:i;
      sift_up q p c s v
    end

let grow q =
  let cap = Array.length q.id in
  if q.len = cap then begin
    let extend a = Array.append a (Array.make cap 0) in
    q.clock <- extend q.clock;
    q.seq <- extend q.seq;
    q.id <- extend q.id
  end

let push q ~clock v =
  grow q;
  let i = q.len in
  q.len <- i + 1;
  sift_up q i clock (fresh_seq q) v

let top q =
  check_nonempty q "top";
  q.id.(0)

let top_clock q =
  check_nonempty q "top_clock";
  q.clock.(0)

let requeue_root q ~clock =
  check_nonempty q "requeue_root";
  sift_down q 0 clock (fresh_seq q) q.id.(0)

let remove_root q =
  check_nonempty q "remove_root";
  let last = q.len - 1 in
  q.len <- last;
  if last > 0 then sift_down q 0 q.clock.(last) q.seq.(last) q.id.(last)
