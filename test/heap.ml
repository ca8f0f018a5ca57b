(* Classic array-backed binary heap. The secondary key [seq] makes pop order
   deterministic under equal priorities (FIFO).

   Slots at or beyond [len] are [None]: a popped entry must not stay
   reachable from the backing array, or the heap pins every value it ever
   held against the GC for as long as the array is not overwritten by later
   pushes (see test_util's finaliser test). *)

type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry option array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len

let get t i =
  match t.data.(i) with Some e -> e | None -> assert false

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let data = Array.make ncap None in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t ~priority value =
  let entry = { prio = priority; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.data.(t.len) <- Some entry;
  t.len <- t.len + 1;
  (* sift up *)
  let i = ref (t.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less (get t !i) (get t parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(parent) in
    t.data.(parent) <- t.data.(!i);
    t.data.(!i) <- tmp;
    i := parent
  done

let peek t =
  if t.len = 0 then None
  else
    let e = get t 0 in
    Some (e.prio, e.value)

let pop t =
  if t.len = 0 then None
  else begin
    let top = get t 0 in
    t.len <- t.len - 1;
    t.data.(0) <- t.data.(t.len);
    t.data.(t.len) <- None;
    if t.len > 1 then begin
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && less (get t l) (get t !smallest) then smallest := l;
        if r < t.len && less (get t r) (get t !smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.prio, top.value)
  end
