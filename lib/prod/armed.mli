(** Production atomicity wrappers (the always-on masking runtime).

    Where detection's {!Failatom_core.Mask.masking_filter} exists to
    find non-atomic methods, the armed wrapper exists to run forever in
    front of already-classified ones: it must make the common path — a
    call that returns normally — as close to free as possible, and keep
    per-method evidence that the masking is earning its keep.

    Each wrapped call takes a copy-on-write
    {!Failatom_runtime.Checkpoint} at entry — the same one
    detection-phase masking takes: an O(1) shadow open, nothing copied.
    Only on an exceptional exit does it restore the saved payloads of
    the dirty objects of the entry-time graph, so the entry cost does
    not scale with graph size.

    One {!t} accumulates statistics across every VM it arms, so a
    multi-run production campaign reports totals, not per-run
    fragments. *)

open Failatom_core
open Failatom_runtime

type method_stats = private {
  mutable ms_calls : int;  (** wrapped calls entered *)
  mutable ms_hits : int;  (** exceptional exits rolled back *)
  mutable ms_wrap_ns : int;
      (** total entry + normal-exit bookkeeping time *)
  mutable ms_rollback_ns : int;  (** total rollback time *)
}

type t

val create : config:Config.t -> targets:Method_id.Set.t -> unit -> t
(** A stats-accumulating wrapper set for the given target methods.
    [config] supplies the root policy (receiver only vs receiver plus
    reference arguments), exactly as in detection-phase masking. *)

val targets : t -> Method_id.Set.t

val arm : t -> Vm.t -> unit
(** Attaches an armed wrapper to every target method defined by the VM.
    May be called on any number of VMs; they all feed the same
    statistics.  Observability: increments [mask.calls] / [mask.hits]
    and feeds the [mask.wrap_ns] / [mask.rollback_ns] histograms. *)

val per_method : t -> (Method_id.t * method_stats) list
(** Statistics of every method that was actually armed, sorted by
    method id. *)

val calls : t -> int
val hits : t -> int
