(** Sliding window of interval histograms with exponential decay — the
    state the serve daemon keeps fresh under continuous ingestion.

    The window covers the [window] most recent intervals
    [(newest − window, newest]]. Feeding a sample whose interval index
    advances [newest] retires every interval at or below the new
    watermark by {e subtraction}: the retired interval's histogram is
    rebuilt as a one-interval binner and {!Slo_concurrency.Sample.retract}ed
    from the master, whose absorb/retract laws make the result exactly
    the binner that never saw those samples — no re-binning of the
    survivors. Samples arriving {e below} the watermark are dropped and
    counted ({!late}).

    {b Weighted CC.} {!weighted} sums the per-interval CC maps with
    fixed-point decay weights [round (1024 · decay^age) / 1024] (age in
    intervals, newest = 0): each entry adds
    [floor (v · weight / 1024)] ({!Slo_concurrency.Code_concurrency.scale}),
    floored per interval and summed saturating — exact integer
    arithmetic, independent of summation order, and the same value
    {!Slo_concurrency.Code_concurrency.merge_scaled} gives. The result is
    a {!vec}: the non-zero pairs as packed keys in ascending order with
    their weighted counts.

    {b Why a full re-sum.} Every call re-sums all live intervals. An
    incremental sum (add the new interval, subtract the retired one,
    rescale under decay) is not exact: each interval's term is floored
    on its own, so a rescaled sum differs from a fresh one, and once
    [newest] advances every weight changes anyway. The re-sum is kept
    cheap instead. Each interval's CC is memoized on the interval's
    sample total as compact [(pair, count)] arrays, so a call recomputes
    only the intervals that changed. The pairs are interned to dense ids
    shared by all memos, so the weighted sum accumulates into an int
    array. An id no live memo holds is reclaimed, so pair storage stays
    within a constant factor of the live pairs ({!live_pairs},
    {!pair_slots}), however many distinct lines stream through.

    Not thread-safe: the serve daemon serializes access. *)

type t

val weight_den : int
(** 1024 — the fixed-point denominator of the decay weights. *)

val create : ?decay:float -> interval:int -> window:int -> unit -> t
(** [decay] defaults to 1.0 (no decay: plain sliding window).
    @raise Invalid_argument if [interval <= 0], [window <= 0], or [decay]
    is outside (0, 1]. *)

val interval : t -> int
val window_length : t -> int
val decay : t -> float

val feed : t -> cpu:int -> itc:int -> line:int -> bool
(** Ingest one sample. Returns [false] — and counts it {!late} — when the
    sample's interval is at or below the retirement watermark; [true]
    when accepted (possibly retiring older intervals first when it
    advances the watermark). @raise Invalid_argument on out-of-range
    identifiers (the {!Slo_concurrency.Sample.feed} discipline). *)

val newest : t -> int option
(** The newest interval index accepted, [None] before the first sample. *)

val live_samples : t -> int
(** Samples currently in the window (fed minus retired). *)

val live_intervals : t -> int
val retired : t -> int
(** Intervals retired by subtraction so far. *)

val late : t -> int
(** Samples dropped below the watermark. *)

val master : t -> Slo_concurrency.Sample.binner
(** The live window's binner — read-only by convention (snapshots,
    identity checks); mutating it bypasses the window accounting. *)

val weight : t -> age:int -> int
(** [round (weight_den · decay^age)]. @raise Invalid_argument if
    [age < 0]. *)

val live_pairs : t -> int
(** Distinct pairs held by the memos of live intervals. *)

val pair_slots : t -> int
(** Pair ids the window has room for: at most twice the peak of
    {!live_pairs}, since ids of retired pairs are reused. *)

type vec
(** A decay-weighted CC vector: non-zero pairs in ascending packed-key
    order ({!Slo_concurrency.Code_concurrency.iter} keys). *)

val empty : vec
(** The vector with no pairs. *)

val weighted : t -> vec
(** The decay-weighted CC of the live window ({!empty} when empty). *)

val cc_of_vec : vec -> Slo_concurrency.Code_concurrency.t
(** The vector as a map: what a publication is searched against. *)

val vec_of_cc : Slo_concurrency.Code_concurrency.t -> vec

val drift : vec -> vec -> float
(** Shape drift in [0, 1]: half the L1 distance between the vectors
    normalized to unit mass. 0 when the sharing pattern is identical —
    including at a different sample volume, so pure growth never reads
    as drift — and 1 when the patterns are disjoint (or exactly one
    vector is empty). The serve daemon re-searches when this exceeds its
    threshold. Bit-identical to the same distance over the maps: the
    masses are float sums in decreasing-count order, the differences are
    summed in ascending key order. *)

val restore :
  ?decay:float ->
  window:int ->
  newest:int ->
  Slo_concurrency.Sample.binner ->
  t
(** Rebuild a window around a binner loaded from a snapshot
    ({!Slo_persist.Persist.load_serve_snapshot}); the binner is owned by
    the window afterwards. [retired]/[late] restart at 0.
    @raise Invalid_argument if [window <= 0], [decay] is outside (0, 1],
    or a live interval lies outside (newest − window, newest]. *)
