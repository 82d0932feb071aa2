(** The paper's eager capture, kept as a test oracle.

    The product captures state only by copy-on-write (a {!Shadow} per
    wrapped call).  The paper instead canonicalizes the receiver's whole
    object graph at every wrapped call entry (Listing 1) and copies that
    graph at every masked call (Listing 2).  Those literal semantics
    live here, and the identity tests and benches run the product with
    them substituted in through the {!Failatom_core.Injection.substitute}
    and {!Failatom_runtime.Checkpoint.substitute} seams, then diff the
    results against the copy-on-write run. *)

open Failatom_runtime

val snapshot : Heap.t -> Value.t list -> Object_graph.node
(** Listing 1: the canonical form of everything reachable from the
    roots, built from scratch at call entry. *)

(** Listing 2: copy every payload reachable from the roots at entry;
    rollback writes the copies back in place. *)
module Eager_checkpoint : sig
  type t

  val take : Heap.t -> Value.t list -> t
  val size : t -> int
  val rollback : t -> unit

  val reference : Heap.t -> Value.t list -> Checkpoint.reference
  (** The same, packaged for {!Checkpoint.substitute}. *)
end

val with_eager_snapshots : (unit -> 'a) -> 'a
(** Runs [f] with every detection snapshot taken by {!snapshot}. *)

val with_eager_checkpoints : (unit -> 'a) -> 'a
(** Runs [f] with every checkpoint — detection-phase masking and
    production wrappers alike — taken by {!Eager_checkpoint}. *)

val with_eager : (unit -> 'a) -> 'a
(** Both: the paper's capture semantics end to end. *)
