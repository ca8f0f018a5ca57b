(** The machine scheduler's run queue: a binary min-heap of thread ids
    keyed by [(clock, seq)], kept in three parallel [int] arrays.

    [seq] is a counter stamped on every {!push} and {!requeue_root}, so
    equal clocks pop in arrival order (FIFO) and no two keys are ever
    equal. Because keys are unique, the minimum is unique, and the pop
    order is a function of the key set alone: re-keying the root and
    sifting it down once ({!requeue_root}) yields exactly the order of
    popping the root and pushing it back with a fresh [seq] — at half the
    sifting and with no allocation. No operation allocates except {!push}
    growing the arrays, and no operation runs a write barrier. *)

type t

val create : capacity:int -> t
(** An empty queue. [capacity] is a size hint; {!push} grows past it. *)

val is_empty : t -> bool
val size : t -> int

val push : t -> clock:int -> int -> unit
(** [push q ~clock id] enqueues [id] with key [(clock, fresh seq)]. *)

val top : t -> int
(** Id of the minimum-key entry.
    @raise Invalid_argument when the queue is empty. *)

val top_clock : t -> int
(** Clock of the minimum-key entry.
    @raise Invalid_argument when the queue is empty. *)

val requeue_root : t -> clock:int -> unit
(** Re-key the minimum entry to [(clock, fresh seq)] and restore the heap
    order — the same next {!top} as popping it and pushing it back.
    [clock] may be any value: the root has no parent, so one sift down
    suffices.
    @raise Invalid_argument when the queue is empty. *)

val remove_root : t -> unit
(** Drop the minimum entry (the last entry moves to the root and sifts
    down).
    @raise Invalid_argument when the queue is empty. *)
