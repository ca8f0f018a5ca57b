module Prng = Slo_util.Prng
module Pool = Slo_exec.Pool
module Obs = Slo_obs.Obs

type kind = Greedy | Swap | Anneal

let kind_name = function Greedy -> "greedy" | Swap -> "swap" | Anneal -> "anneal"

type selector = One of kind | Portfolio

let selector_name = function One k -> kind_name k | Portfolio -> "portfolio"

module Make (P : Substrate.PROBLEM) = struct
  module Pairs = Substrate.Pairs (P.Node)

  let block_weight prob block = Pairs.pair_weight_sum ~weight:(P.weight prob) block

  let score_blocks prob blocks =
    List.fold_left (fun acc b -> acc +. block_weight prob b) 0.0 blocks

  type result = {
    kind : kind;
    label : string;
    stream : int;
    score : float;
    blocks : P.Node.t list list;
    moves : int;
  }

  let block_size prob block = List.fold_left (P.extend prob) 0 block

  (* Singletons always fit — an oversized node gets its own block. *)
  let block_fits prob = function
    | [] | [ _ ] -> true
    | block -> block_size prob block <= P.capacity prob

  (* ------------------------------------------------------------------ *)
  (* Dense index of a problem, built once and shared read-only by every
     task of a portfolio. Node ids follow [P.nodes]; only active nodes get
     a row and column of the weight matrix, since an inactive node weighs
     0 against every other node. *)

  type index = {
    prob : P.t;
    node : P.Node.t array;  (* id -> node *)
    id_of : (string, int) Hashtbl.t;  (* name -> id *)
    active : int array;  (* ids of the active nodes, in [P.active] order *)
    act : int array;  (* id -> position in [active], or -1 *)
    na : int;
    w : float array;  (* w.(act f * na + act g) = P.weight f g *)
    cap : int;
  }

  let index prob =
    let node = Array.of_list (P.nodes prob) in
    let id_of = Hashtbl.create (2 * Array.length node) in
    Array.iteri (fun i x -> Hashtbl.replace id_of (P.Node.name x) i) node;
    let active =
      Array.of_list
        (List.map (fun x -> Hashtbl.find id_of (P.Node.name x)) (P.active prob))
    in
    let na = Array.length active in
    let act = Array.make (Array.length node) (-1) in
    Array.iteri (fun a id -> act.(id) <- a) active;
    let w = Array.make (na * na) 0.0 in
    Array.iteri
      (fun a f ->
        let fname = P.Node.name node.(f) in
        Array.iteri
          (fun b g ->
            if a <> b then
              w.((a * na) + b) <- P.weight prob fname (P.Node.name node.(g)))
          active)
      active;
    { prob; node; id_of; active; act; na; w; cap = P.capacity prob }

  (* ------------------------------------------------------------------ *)
  (* Mutable search state: a fixed number of blocks, each an
     order-preserving buffer of node ids with its size cached. Extra empty
     slots (one per active node) let any move open a fresh block, so every
     capacity-respecting partition of the active nodes is reachable. *)

  type state = {
    ix : index;
    items : int array array;  (* block -> members; the first [len] count *)
    len : int array;
    size : int array;  (* block -> [block_size] of its members *)
    rest : int array;  (* id -> size of its block without it (active ids) *)
    pos : int array;  (* id -> block *)
  }

  (* Recompute a block's cached size and, for its active members, the size
     of the block without them. *)
  let refresh st b =
    let ext = P.extend st.ix.prob and node = st.ix.node in
    let items = st.items.(b) and n = st.len.(b) in
    let s = ref 0 in
    for k = 0 to n - 1 do
      s := ext !s node.(items.(k))
    done;
    st.size.(b) <- !s;
    for k = 0 to n - 1 do
      let x = items.(k) in
      if st.ix.act.(x) >= 0 then begin
        let r = ref 0 in
        for m = 0 to n - 1 do
          if m <> k then r := ext !r node.(items.(m))
        done;
        st.rest.(x) <- !r
      end
    done

  let state_of_blocks ix blocks =
    let nb = List.length blocks + ix.na in
    let n = Array.length ix.node in
    let items = Array.make nb [||] in
    List.iteri
      (fun b block ->
        items.(b) <-
          Array.of_list
            (List.map (fun x -> Hashtbl.find ix.id_of (P.Node.name x)) block))
      blocks;
    let st =
      { ix; items; len = Array.map Array.length items; size = Array.make nb 0;
        rest = Array.make n 0; pos = Array.make n 0 }
    in
    Array.iteri (fun b its -> Array.iter (fun x -> st.pos.(x) <- b) its) items;
    for b = 0 to nb - 1 do
      refresh st b
    done;
    st

  (* w(x, B \ {x, y}): the attachment of node [x] to block [b], skipping
     [x] itself and the exchange partner [y] (pass [y = x] for a plain
     move). Members are visited in block order, so the float sum is the
     one a fold over the block with those two removed performs. Inactive
     members weigh 0.0 and are skipped: the sum starts at +0.0 and so can
     never be -0.0, and adding 0.0 to any other float is the identity. *)
  let weight_to st x y b =
    let ix = st.ix in
    let row = ix.act.(x) * ix.na and items = st.items.(b) in
    let acc = ref 0.0 in
    for k = 0 to st.len.(b) - 1 do
      let g = items.(k) in
      if g <> x && g <> y then begin
        let c = ix.act.(g) in
        if c >= 0 then acc := !acc +. ix.w.(row + c)
      end
    done;
    !acc

  (* Can [x] join block [b] (which does not contain it)? *)
  let fits_in st b x =
    st.len.(b) = 0 || P.extend st.ix.prob st.size.(b) st.ix.node.(x) <= st.ix.cap

  (* Can [y] join [x]'s block once [x] has left it? *)
  let fits_rest st x y =
    st.len.(st.pos.(x)) = 1
    || P.extend st.ix.prob st.rest.(x) st.ix.node.(y) <= st.ix.cap

  let move_node st x ~src ~dst =
    let items = st.items.(src) and n = st.len.(src) in
    let k = ref 0 in
    while items.(!k) <> x do
      incr k
    done;
    Array.blit items (!k + 1) items !k (n - !k - 1);
    st.len.(src) <- n - 1;
    let m = st.len.(dst) in
    if m = Array.length st.items.(dst) then begin
      let grown = Array.make (Int.max 4 (2 * m)) 0 in
      Array.blit st.items.(dst) 0 grown 0 m;
      st.items.(dst) <- grown
    end;
    st.items.(dst).(m) <- x;
    st.len.(dst) <- m + 1;
    st.pos.(x) <- dst;
    refresh st src;
    refresh st dst

  (* ------------------------------------------------------------------ *)
  (* Steepest-descent pairwise swap / cross-block move (kind Swap). *)

  type move = Move of int * int * int | Exchange of int * int

  let epsilon = 1e-9

  (* The best candidate so far, kept in preallocated cells so that
     scanning allocates nothing: [best_d.(0)] is its delta, [best_m] holds
     found (0/1), kind (0 move, 1 exchange) and three node/block ids. *)
  let consider best_d best_m delta kind a b c =
    (* Fixed enumeration order + strict improvement keeps the pick
       deterministic: ties go to the first candidate encountered. *)
    if best_m.(0) = 0 || not (best_d.(0) >= delta) then begin
      best_d.(0) <- delta;
      best_m.(0) <- 1;
      best_m.(1) <- kind;
      best_m.(2) <- a;
      best_m.(3) <- b;
      best_m.(4) <- c
    end

  let best_move st =
    let ix = st.ix in
    let best_d = [| 0.0 |] and best_m = Array.make 5 0 in
    let nblocks = Array.length st.len in
    for i = 0 to ix.na - 1 do
      let f = ix.active.(i) in
      let src = st.pos.(f) in
      let detach = weight_to st f f src in
      let singleton = st.len.(src) = 1 in
      for dst = 0 to nblocks - 1 do
        (* singleton -> empty block is a no-op; skip it *)
        if dst <> src
           && (not (st.len.(dst) = 0 && singleton))
           && fits_in st dst f
        then consider best_d best_m (weight_to st f f dst -. detach) 0 f src dst
      done
    done;
    for i = 0 to ix.na - 1 do
      for j = i + 1 to ix.na - 1 do
        let f = ix.active.(i) and g = ix.active.(j) in
        let bi = st.pos.(f) and bj = st.pos.(g) in
        if bi <> bj && fits_rest st f g && fits_rest st g f then
          consider best_d best_m
            (weight_to st f g bj
            +. weight_to st g f bi
            -. weight_to st f g bi
            -. weight_to st g f bj)
            1 f g 0
      done
    done;
    if best_m.(0) = 0 then None
    else
      Some
        ( best_d.(0),
          if best_m.(1) = 0 then Move (best_m.(2), best_m.(3), best_m.(4))
          else Exchange (best_m.(2), best_m.(3)) )

  let apply_move st = function
    | Move (f, src, dst) -> move_node st f ~src ~dst
    | Exchange (f, g) ->
      let bi = st.pos.(f) and bj = st.pos.(g) in
      move_node st f ~src:bi ~dst:bj;
      move_node st g ~src:bj ~dst:bi

  let swap_descent st =
    (* Each applied move improves the objective by > epsilon and the
       partition space is finite, so this terminates; the cap is a pure
       safety net against float pathologies. *)
    let max_moves = 1000 + (32 * st.ix.na) in
    let rec descend moves =
      if moves >= max_moves then moves
      else
        match best_move st with
        | Some (delta, action) when delta > epsilon ->
          apply_move st action;
          descend (moves + 1)
        | _ -> moves
    in
    descend 0

  (* ------------------------------------------------------------------ *)
  (* Simulated annealing (kind Anneal). *)

  (* A partition, flattened: block [b]'s members are [nodes.(start.(b))]
     to [nodes.(start.(b + 1) - 1)]. Taking one copies ids into
     preallocated arrays; the annealer keeps its best-seen state so. *)
  type snapshot = { nodes : int array; start : int array }

  let snapshot st =
    { nodes = Array.make (Array.length st.ix.node) 0;
      start = Array.make (Array.length st.len + 1) 0 }

  let take st snap =
    let k = ref 0 in
    Array.iteri
      (fun b n ->
        snap.start.(b) <- !k;
        Array.blit st.items.(b) 0 snap.nodes !k n;
        k := !k + n)
      st.len;
    snap.start.(Array.length st.len) <- !k

  (* The non-empty blocks, in block order. *)
  let blocks_of_snapshot ix snap =
    let out = ref [] in
    for b = Array.length snap.start - 2 downto 0 do
      let lo = snap.start.(b) and hi = snap.start.(b + 1) in
      if hi > lo then
        out := List.init (hi - lo) (fun k -> ix.node.(snap.nodes.(lo + k))) :: !out
    done;
    !out

  let blocks_of_state st =
    let snap = snapshot st in
    take st snap;
    blocks_of_snapshot st.ix snap

  (* The annealer's running values, in an all-float record so that
     updating them allocates nothing. *)
  type walk = { mutable temp : float; mutable cur : float; mutable best : float }

  let anneal ~prng ~steps st =
    let ix = st.ix in
    let n_active = ix.na in
    let nblocks = Array.length st.len in
    let t0 = Float.max 1.0 (P.max_abs_weight ix.prob) in
    let cool = 1e-3 ** (1.0 /. float_of_int steps) in
    (* geometric schedule from t0 down to t0/1000 over [steps] proposals *)
    let init = score_blocks ix.prob (blocks_of_state st) in
    let wk = { temp = t0; cur = init; best = init } in
    let snap = snapshot st in
    take st snap;
    let accepted = ref 0 in
    let accept delta =
      delta >= 0.0 || Prng.float prng 1.0 < exp (delta /. wk.temp)
    in
    (* called once an accepted move is applied *)
    let commit delta =
      incr accepted;
      wk.cur <- wk.cur +. delta;
      if wk.cur > wk.best then begin
        wk.best <- wk.cur;
        take st snap
      end
    in
    for _ = 1 to steps do
      (if n_active > 0 then
         let f = ix.active.(Prng.int prng n_active) in
         let src = st.pos.(f) in
         if n_active < 2 || Prng.int prng 3 < 2 then begin
           (* single-node move to a random (possibly fresh) block *)
           let dst = Prng.int prng nblocks in
           if
             dst <> src
             && (not (st.len.(dst) = 0 && st.len.(src) = 1))
             && fits_in st dst f
           then
             let delta = weight_to st f f dst -. weight_to st f f src in
             if accept delta then begin
               move_node st f ~src ~dst;
               commit delta
             end
         end
         else begin
           (* cross-block pairwise swap *)
           let g = ix.active.(Prng.int prng n_active) in
           let dst = st.pos.(g) in
           if dst <> src && fits_rest st f g && fits_rest st g f then
             let delta =
               weight_to st f g dst
               +. weight_to st g f src
               -. weight_to st f g src
               -. weight_to st g f dst
             in
             if accept delta then begin
               apply_move st (Exchange (f, g));
               commit delta
             end
         end);
      wk.temp <- wk.temp *. cool
    done;
    (!accepted, blocks_of_snapshot ix snap)

  (* ------------------------------------------------------------------ *)

  let check_init prob init =
    let names blocks =
      List.sort compare
        (List.concat_map (List.map P.Node.name) blocks)
    in
    if names init <> List.sort compare (List.map P.Node.name (P.nodes prob))
    then
      invalid_arg "Search.Optimizer.run: init is not a partition of the fields";
    List.iter
      (fun b ->
        if not (block_fits prob b) then
          invalid_arg "Search.Optimizer.run: init block exceeds the cache line")
      init

  let mk_result prob kind ~label ~blocks ~moves =
    let blocks = List.filter (fun b -> b <> []) blocks in
    { kind; label; stream = 0; score = score_blocks prob blocks; blocks; moves }

  let default_steps prob = Int.max 500 (120 * List.length (P.active prob))

  (* [ix] is the problem's dense index when the caller already built one
     (a portfolio shares one across its tasks). *)
  let run_in ix ?prng ?steps prob ~init kind =
    check_init prob init;
    (match steps with
    | Some s when s <= 0 -> invalid_arg "Search.Optimizer.run: steps <= 0"
    | _ -> ());
    let state () =
      state_of_blocks (match ix with Some ix -> ix | None -> index prob) init
    in
    let searched kind ~label ~blocks ~moves =
      let r = mk_result prob kind ~label ~blocks ~moves in
      (* descent is monotone from init and annealing keeps the best seen,
         but keep the guarantee exact under float accumulation: never
         return below the seed *)
      if r.score < score_blocks prob init then
        mk_result prob kind ~label ~blocks:init ~moves
      else r
    in
    match kind with
    | Greedy -> mk_result prob Greedy ~label:"greedy" ~blocks:init ~moves:0
    | Swap ->
      let st = state () in
      let moves = swap_descent st in
      searched Swap ~label:"swap" ~blocks:(blocks_of_state st) ~moves
    | Anneal ->
      let prng = match prng with Some p -> p | None -> Prng.create ~seed:0 in
      let steps = match steps with Some s -> s | None -> default_steps prob in
      let moves, blocks = anneal ~prng ~steps (state ()) in
      searched Anneal ~label:"anneal" ~blocks ~moves

  let run ?prng ?steps prob ~init kind = run_in None ?prng ?steps prob ~init kind

  (* ------------------------------------------------------------------ *)
  (* Portfolio *)

  type portfolio = { best : result; greedy : result; scoreboard : result list }

  let run_selector ?pool ?(seed = 0) ?(restarts = 4) ?steps ?decl prob ~init
      selector =
    if restarts < 1 then
      invalid_arg "Search.Optimizer.run_selector: restarts < 1";
    Obs.time "search.portfolio_s" @@ fun () ->
    let anneal_tasks =
      List.init restarts (fun i -> (Printf.sprintf "anneal#%d" i, Anneal, init))
    in
    let baseline = ("greedy", Greedy, init) in
    let tasks =
      match selector with
      | One Greedy -> [ baseline ]
      | One Swap -> [ baseline; ("swap", Swap, init) ]
      | One Anneal -> baseline :: anneal_tasks
      | Portfolio ->
        (baseline :: ("swap", Swap, init)
        ::
        (match decl with
        | None -> []
        | Some d -> [ ("swap@decl", Swap, d) ]))
        @ anneal_tasks
    in
    let tasks =
      List.mapi (fun i (label, k, blocks) -> (i, label, k, blocks)) tasks
    in
    let ix = match selector with One Greedy -> None | _ -> Some (index prob) in
    let run_task prng (i, label, kind, blocks) =
      let r =
        Obs.time "search.task_s" (fun () ->
            run_in ix ~prng ?steps prob ~init:blocks kind)
      in
      Obs.incr "search.tasks";
      if r.moves > 0 then Obs.incr ~by:r.moves "search.moves";
      { r with stream = i; label }
    in
    let results =
      match pool with
      | Some p -> Pool.map_seeded p ~seed run_task tasks
      | None ->
        List.mapi (fun i t -> run_task (Prng.derive ~seed ~stream:i) t) tasks
    in
    let greedy = List.hd results in
    let best =
      List.fold_left
        (fun b r -> if r.score > b.score then r else b)
        greedy (List.tl results)
    in
    let scoreboard =
      List.stable_sort (fun a b -> compare b.score a.score) results
    in
    { best; greedy; scoreboard }
end
