(* The paper's eager capture (Listing 1 snapshots, Listing 2
   checkpoints), kept as the oracle the copy-on-write path is diffed
   against. *)

open Failatom_runtime

let snapshot heap roots = Object_graph.canonical_many heap roots

module Eager_checkpoint = struct
  type t = { heap : Heap.t; saved : (Value.obj_id, Heap.payload) Hashtbl.t }

  let reachable_ids heap roots =
    let visited = Hashtbl.create 64 in
    let rec visit = function
      | Value.Ref id when not (Hashtbl.mem visited id) ->
        Hashtbl.replace visited id ();
        List.iter (fun r -> visit (Value.Ref r)) (Heap.successors heap id)
      | _ -> ()
    in
    List.iter visit roots;
    visited

  let take heap roots =
    let saved = Hashtbl.create 64 in
    Hashtbl.iter
      (fun id () -> Hashtbl.replace saved id (Heap.copy_payload (Heap.get heap id)))
      (reachable_ids heap roots);
    { heap; saved }

  let size t = Hashtbl.length t.saved

  let rollback t =
    Hashtbl.iter (fun id payload -> Heap.restore_payload t.heap id payload) t.saved

  let reference heap roots =
    let t = take heap roots in
    { Checkpoint.ref_size = (fun () -> size t);
      ref_rollback = (fun () -> rollback t);
      ref_dispose = ignore }
end

let with_seam seam value f =
  let saved = !seam in
  seam := Some value;
  Fun.protect ~finally:(fun () -> seam := saved) f

let with_eager_snapshots f = with_seam Failatom_core.Injection.substitute snapshot f
let with_eager_checkpoints f = with_seam Checkpoint.substitute Eager_checkpoint.reference f
let with_eager f = with_eager_snapshots (fun () -> with_eager_checkpoints f)
