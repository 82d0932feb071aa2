(** Checkpoint / rollback of object graphs (paper Listing 2), by
    copy-on-write (the optimization the paper suggests in §6.2).

    Taking a checkpoint copies nothing: it opens a {!Shadow} on the heap
    (O(1)) and remembers the protected roots.  The heap's write barrier
    saves an object's payload on its first mutation while the
    checkpoint is active.  {!rollback} restores the saved payloads of
    the entry-time graph {e in place}, so every alias observes the
    restored state — the paper's [replace(this, objgraph)] — and the
    restored graph is bitwise identical to what the paper's eager copy
    of the same roots would restore.  Objects allocated after the
    checkpoint become garbage after rollback and are reclaimed by
    {!Gc_heap.collect}.

    This is the one rollback mechanism of the system: detection-phase
    masking ({!Failatom_core.Mask}) and the production wrappers
    ({!Failatom_prod.Armed}) both use it.  The paper's eager Listing 2
    copy survives only as the test-suite oracle it is diffed against. *)

type t

val take : ?complete:bool -> Heap.t -> Value.t list -> t
(** [take heap roots] checkpoints everything reachable from [roots].
    Checkpoints nest (each active one records independently).

    [complete] (default [true]) asserts that [roots] hold every
    reference the protected code can reach at entry — the receiver plus
    all reference arguments.  Then, when no other thread wrote during
    the call, every dirty object that existed at entry lies in the
    entry-time graph, and rollback restores the dirty objects below the
    entry allocation watermark in O(dirty) without traversing anything.
    With [complete:false], or when a foreign write is detected
    ({!Heap.writes_by_tid}), rollback instead restores only the dirty
    objects reachable from the roots at entry. *)

val size : t -> int
(** Number of payloads captured so far: grows as the protected code
    mutates state. *)

val rollback : t -> unit
(** Restores every object of the entry-time graph to its checkpointed
    payload. *)

val dispose : t -> unit
(** Detaches the checkpoint from the write barrier.  Must be called
    exactly once, whether or not it was rolled back. *)

val with_checkpoint : Heap.t -> Value.t list -> (t -> 'a) -> 'a
(** Scoped form: disposes the checkpoint on exit, even on exceptions. *)

(** {1 Test seam}

    The test suite diffs this implementation against the paper's
    literal Listing 2 (copy the whole graph at entry).  To do so it
    substitutes its reference implementation for every checkpoint the
    system takes; nothing else sets the seam. *)

type reference = {
  ref_size : unit -> int;
  ref_rollback : unit -> unit;
  ref_dispose : unit -> unit;
}

val substitute : (Heap.t -> Value.t list -> reference) option ref
(** When [Some f], {!take} returns [f heap roots] instead of a
    copy-on-write checkpoint.  [None] (the default) in every product
    path. *)
