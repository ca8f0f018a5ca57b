(** CodeConcurrency (§3.2): a sampling-based estimate of how often two
    pieces of code execute {e at the same time on different processors}.

    For an interval I and lines Li, Lj:
    {v CC_I(Li,Lj) = Σ_{Pm ≠ Pn} min(F_I(Pm,Li), F_I(Pn,Lj)) v}
    and CC(Li,Lj) = Σ_I CC_I(Li,Lj). The result is the paper's
    {e Concurrency Map}: unordered line pairs (including the diagonal,
    which captures two CPUs running the same line concurrently) mapped to
    their CC value.

    The inner double sum over CPU pairs is computed without allocating
    per pair: Σ_{m,n} min(a_m, b_n) − Σ_m min(a_m, b_m). Each line's
    frequency vector carries its counts sorted ascending with prefix sums,
    so the all-pairs term is one monotone merge of two sorted arrays, and
    its cpu-ordered (cpu, count) arrays, so the same-cpu term is a
    merge-join. All counting arithmetic saturates at [max_int] instead of
    wrapping — profile-scale frequencies stay non-negative, and
    saturating addition of non-negative values remains associative and
    commutative, which the sharded reduce below depends on.

    {b Representation.} A map is a {!Slo_util.Flat_tab} keyed by the
    packed unordered pair [(l1 lsl 31) lor l2] with [l1 <= l2]. Lines are
    identifiers in [0 .. ]{!Sample.max_id}[ = 2^31 - 1] (the {!Sample}
    discipline), so the key is a non-negative int, and its integer order
    is the lexicographic order of [(l1, l2)]. Upserts are one probe and
    allocate nothing.

    {b Scaling.} Intervals are independent, so the map decomposes as a
    merge of per-interval maps: {!compute_tables} splits the interval list
    into deterministic chunks, computes each chunk's partial map (on an
    {!Slo_exec.Pool} when given), and reduces with the pointwise-sum
    {!merge}. Results are identical for every pool size and chunk size
    (test_concurrency's shard suite pins this). {!compute_stream} feeds a
    sample {e producer} through {!Sample.binner} first, so a persisted
    profile is ingested line by line without ever materializing the sample
    list.

    {b Observability.} {!compute_tables} (and everything routed through
    it) records counters [cc.intervals] / [cc.samples], gauge
    [cc.table.peak_entries] and histograms [cc.compute_s] /
    [cc.ingest_s] into {!Slo_obs.Obs.default}; write-only, so
    instrumented runs stay byte-identical. *)

type t
(** A concurrency map. *)

val create : unit -> t
(** The empty map ([cc] is 0 everywhere) — the unit of {!merge}. *)

val compute : interval:int -> Sample.t list -> t
(** Bin samples and accumulate CC over all intervals.
    @raise Invalid_argument if [interval <= 0]. *)

val of_interval : Sample.interval_table -> t
(** CC of a single interval; [compute] is the merge of [of_interval] over
    the binned tables. *)

val compute_tables :
  ?pool:Slo_exec.Pool.t -> ?chunk:int -> Sample.interval_table list -> t
(** Accumulate CC over pre-binned interval tables. With [pool], chunks of
    [chunk] (default 32) consecutive tables are computed as independent
    partial maps across the pool's domains and merged; the result is
    identical to the serial path for every pool and chunk size.
    @raise Invalid_argument if [chunk <= 0]. *)

val compute_stream :
  ?pool:Slo_exec.Pool.t ->
  ?chunk:int ->
  interval:int ->
  ((Sample.t -> unit) -> unit) ->
  t
(** [compute_stream ~interval iter] drains the sample producer [iter]
    through a {!Sample.binner} and then runs {!compute_tables}: streaming
    ingestion plus sharded computation, without a sample list. Equals
    [compute ~interval samples] whenever [iter] produces [samples] in any
    order and chunking. @raise Invalid_argument if [interval <= 0]. *)

val compute_store :
  ?pool:Slo_exec.Pool.t ->
  ?chunk:int ->
  ?range:int ->
  interval:int ->
  Sample_store.t ->
  t
(** The columnar ingestion path: bin a {!Sample_store} by handing pool
    workers index {e ranges} into the shared columns ([range] samples per
    task, default 65536) — zero copies, no materialized sample list —
    absorb the per-range binners (pointwise histogram sum), then run
    {!compute_tables} over the merged interval tables. Equals
    [compute ~interval (Sample_store.to_samples store)] for every pool,
    range and chunk size; `bench cc_scale` exits non-zero if the two paths
    ever diverge. @raise Invalid_argument if [interval <= 0] or
    [range <= 0]. *)

val cc : t -> int -> int -> int
(** [cc t l1 l2] — symmetric; 0 when never concurrent or when a line is
    outside [0 .. Sample.max_id]. *)

val pairs : t -> ((int * int) * int) list
(** All line pairs with non-zero CC, [(l1 <= l2)], sorted by decreasing
    CC. *)

val top : t -> k:int -> ((int * int) * int) list
(** The [k] hottest pairs ([k = 0] is allowed and yields []).
    @raise Invalid_argument if [k < 0]. *)

val lines : t -> int list
(** Lines participating in any pair, sorted. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f key v] for every pair with non-zero CC [v], where
    [key = (l1 lsl 31) lor l2] and [l1 <= l2]. Unspecified order. *)

val iter_interval : Sample.interval_table -> (int -> int -> unit) -> unit
(** The interval kernel: [iter_interval tbl f] calls [f key v] for every
    pair of one interval with non-zero [v = CC_I], in ascending key
    order, each key once. {!of_interval} is this collected into a map. *)

val of_keyed : int array -> int array -> t
(** [of_keyed keys counts] is the map holding [counts.(i)] at the pair
    packed as [keys.(i)] (duplicate keys sum, saturating; counts [<= 0]
    are ignored). @raise Invalid_argument on a length mismatch or a key
    that is not a packed pair with [l1 <= l2]. *)

val merge : t -> t -> t
(** Pointwise (saturating) sum — combining collection runs or shard
    results. Associative and commutative up to {!pairs}. *)

val merge_scaled : t -> t -> num:int -> den:int -> unit
(** [merge_scaled dst src ~num ~den] adds [floor (v * num / den)] into
    [dst] for every pair count [v] of [src] — fixed-point decay weighting
    for windowed consumers (the serve daemon weights interval maps by
    [decay^age] as [num/den] with a power-of-two [den], so the weighted
    window sum is exact integer arithmetic, independent of merge order).
    Products are saturating; a saturated product stays [max_int] rather
    than being divided down (see {!scale}). [src] is untouched.
    @raise Invalid_argument if [num < 0] or [den <= 0]. *)

val scale : int -> num:int -> den:int -> int
(** [scale v ~num ~den] is the per-entry term of {!merge_scaled}:
    [floor (v * num / den)] for a non-negative [v], or [max_int] when the
    product saturates. Requires [num >= 0] and [den > 0]. *)

val sat_add : int -> int -> int
(** Saturating addition of non-negative counts: [min (a + b) max_int]. *)

val pp : Format.formatter -> t -> unit

(**/**)

(** Test-only access to the saturating counting kernel. *)
module For_tests : sig
  val sum_min_all : (int * int) list -> (int * int) list -> int
  (** Σ_{m,n} min(a_m, b_n) over two (cpu, count) vectors. *)

  val sum_min_against : (int * int) list -> int -> int
  (** Σ_n min(x, b_n). *)

  val add : t -> int -> int -> int -> unit
  (** Saturating upsert of [v > 0] at the pair [(l1, l2)].
      @raise Invalid_argument if a line is outside [0 .. Sample.max_id]. *)

  val sat_mul : int -> int -> int
end
