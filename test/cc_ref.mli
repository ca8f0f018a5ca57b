(** The tuple-keyed CodeConcurrency map and the map-based window drift,
    kept as the differential oracle for the flat CC layer
    ({!Slo_concurrency.Code_concurrency} and {!Slo_serve.Window}): a
    [Hashtbl] keyed by [(l1, l2)], the interval kernel with a binary
    search per element and a [Hashtbl] per line pair for the same-CPU
    term, and the drift over two maps' sorted pair lists. Same
    saturating arithmetic, same float order. *)

type t

val create : unit -> t
val add : t -> int -> int -> int -> unit
val of_interval : Slo_concurrency.Sample.interval_table -> t
val merge : t -> t -> t
val merge_scaled : t -> t -> num:int -> den:int -> unit

val pairs : t -> ((int * int) * int) list
(** Decreasing CC, ties by pair. *)

val weighted : decay:float -> newest:int -> Slo_concurrency.Sample.binner -> t
(** The decay-weighted sum of the binner's intervals with weights
    [round (1024 · decay^(newest − idx))], by [merge_scaled]. *)

val drift : t -> t -> float
(** Half the L1 distance between the maps normalized to unit mass. *)
