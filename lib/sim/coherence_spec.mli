(** The coherence protocol's specification: the semantics of
    {!Coherence}, written a second time as plainly as possible.

    The model covers everything the kernel simulates, in any geometry (any
    line number, any CPU count, any associativity): MESI and MOESI,
    set-associative true-LRU caches, the false-sharing classifier with its
    episode-scoped invalidation hints and the touched set, the private
    I-cache, and the multi-level hierarchy (inclusive L1 filter, per-cell
    victim LLC). LRU order changes exactly where the kernel's does: a hit
    makes the line most recently used, and so does every state change of
    a resident line — a remote owner's M→S, M→O or E→S downgrade, the
    silent E→M upgrade and an S/O→M upgrade — while a hit in the L1
    filter leaves the L2 order alone.

    Two choices make it a spec rather than a second kernel:
    - {b The directory is derived}, never stored: a line's owner is the
      CPU whose cache holds it in M, E or O, its sharers those holding it
      in S. No directory can drift from the caches here, so several
      protocol invariants hold by construction, and a kernel whose
      directory drifts shows up as a {!mismatch}.
    - {b The state is persistent}: every cache is a pair of immutable
      maps, and {!access} and {!ifetch} return a new state, leaving their
      argument unchanged. The model checker keeps one state per explored
      node and steps it without copying.

    Replaying the 35k-access quick SDET trace takes about 40 ms on a
    2-core x86-64 host, some 20 times the kernel's time: fast enough to be
    the comparand of whole-trace and whole-machine identity checks, not
    meant for simulation. *)

(** Deliberate protocol bugs, used to show that {!Modelcheck} catches
    and minimizes real violations. *)
type mutation =
  | Read_keeps_modified
      (** a remote read of a Modified line forgets to downgrade the owner:
          M and S copies coexist *)
  | Skip_last_invalidation
      (** an invalidating write skips the highest-numbered holder: a stale
          copy survives the write *)

type t

val create :
  Topology.t ->
  line_size:int ->
  cache_capacity:int ->
  ?ways:int ->
  ?icache:Coherence.icache ->
  ?hierarchy:Coherence.hierarchy ->
  ?protocol:Coherence.protocol ->
  ?mutate:mutation ->
  unit ->
  t
(** The empty state of the machine {!Coherence.create} builds from the
    same arguments; [mutate] (default: none) breaks the protocol.
    @raise Invalid_argument as {!Coherence.geometry} does. *)

val access : t -> cpu:int -> addr:int -> size:int -> is_write:bool -> t * int
(** The state after one load or store, and its latency in cycles.
    @raise Invalid_argument as {!Coherence.access} does. *)

val ifetch : t -> cpu:int -> addr:int -> size:int -> t * int
(** The state after one instruction fetch, and its latency in cycles.
    @raise Invalid_argument as {!Coherence.ifetch} does. *)

val stats : t -> cpu:int -> Sim_stats.t
(** A fresh copy of the CPU's counters. *)

val total_stats : t -> Sim_stats.t
val owner : t -> line:int -> int option
val sharers : t -> line:int -> int list
val holders : t -> line:int -> int list
val cache_state : t -> cpu:int -> line:int -> Coherence.state option
val inv_hint : t -> cpu:int -> line:int -> (int * int) option
val touched : t -> line:int -> bool
val icache_resident : t -> cpu:int -> line:int -> bool
val l1_resident : t -> cpu:int -> line:int -> bool
val llc_cell : t -> line:int -> int option
(** The introspection of {!Coherence}, with the same meaning. *)

val violation : t -> string option
(** The first protocol invariant the state breaks, if any: more than one
    M/E/O copy of a line; an M or E copy beside another copy; Owned under
    MESI; a cached line never touched; an invalidation hint that outlives
    its line's sharing episode or sits on an untouched line; an L1 line
    missing from its L2; an LLC line that is also cached or resident in
    two cells. [None] for every state the unmutated protocol reaches. *)

val mismatch : t -> Coherence.t -> lines:int list -> string option
(** The first observable difference between the spec and a kernel: any
    CPU's statistics, or for a line in [lines] its owner, sharers,
    holders, touched bit or LLC cell, or any CPU's cache state, pending
    hint, L1 residency or I-cache residency. [None] when they agree. *)
