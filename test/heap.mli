(** Mutable binary min-heap with integer priorities. Ties are broken by
    insertion order (FIFO).

    The test-side oracle for [Slo_sim.Runq]: the machine scheduler once
    popped and re-pushed the running thread on this heap, and the run
    queue's differential law (test_sim) holds its pop order to exactly
    that. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> priority:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-priority element. The vacated backing
    slot is cleared, so popped values become collectable as soon as the
    caller drops them — the heap never pins values it no longer holds. *)

val peek : 'a t -> (int * 'a) option
