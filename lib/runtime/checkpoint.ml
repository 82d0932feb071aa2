(* Checkpoint / rollback of object graphs (paper Listing 2), by
   copy-on-write (paper §6.2).

   A checkpoint opens a {!Shadow}: nothing is traversed or copied at
   entry, and the heap's write barrier saves an object's payload the
   first time it is mutated while the checkpoint is active.  The entry
   keeps its roots plus three O(1) readings of the heap: the allocation
   watermark, the write generation, and the calling thread's own write
   count.  Rollback must restore exactly the graph those roots reached
   at entry — what the paper's eager copy of the same roots restores —
   and nothing else.

   With complete roots and no foreign write during the call, every
   dirty object that already existed at entry was reachable from the
   roots (the protected code has no other source of references), so
   restoring every saved object below the watermark equals the eager
   restore, in O(dirty).  Objects allocated during the call (including
   an in-flight exception) stay as they are, exactly as an eager
   checkpoint of the entry graph leaves them.  When another thread did
   write during the call, its saves share our shadow; then, as with
   incomplete roots, restore only the dirty objects reachable from the
   roots at entry, leaving unrelated work in place. *)

type cow = {
  shadow : Shadow.t;
  roots : Value.t list;
  complete : bool;
  tid : int;
  gen : int;  (* write generation at entry *)
  own : int;  (* the calling thread's own write count at entry *)
  mark : Value.obj_id;  (* allocation watermark at entry *)
}

type reference = {
  ref_size : unit -> int;
  ref_rollback : unit -> unit;
  ref_dispose : unit -> unit;
}

type t = Cow of cow | Reference of reference

let substitute : (Heap.t -> Value.t list -> reference) option ref = ref None

let take ?(complete = true) heap roots =
  match !substitute with
  | Some f -> Reference (f heap roots)
  | None ->
    let tid = heap.Heap.cur_tid in
    Cow
      { shadow = Shadow.open_ heap;
        roots;
        complete;
        tid;
        gen = Heap.write_gen heap;
        own = Heap.writes_by_tid heap tid;
        mark = heap.Heap.next_id }

let size = function
  | Cow c -> Shadow.dirty_count c.shadow
  | Reference r -> r.ref_size ()

let dispose = function
  | Cow c -> Shadow.close c.shadow
  | Reference r -> r.ref_dispose ()

let rollback = function
  | Reference r -> r.ref_rollback ()
  | Cow { shadow; roots; complete; tid; gen; own; mark } ->
    if Shadow.dirty_count shadow > 0 then begin
      let heap = Shadow.heap shadow in
      let foreign =
        Heap.write_gen heap - gen > Heap.writes_by_tid heap tid - own
      in
      if complete && not foreign then
        Shadow.iter_saved shadow (fun id payload ->
            if id < mark then Heap.restore_payload heap id payload)
      else begin
        let reachable = Object_graph.reachable_via (Shadow.read_before shadow) roots in
        Shadow.iter_saved shadow (fun id payload ->
            if Hashtbl.mem reachable id then Heap.restore_payload heap id payload)
      end
    end

let with_checkpoint heap roots f =
  let cp = take heap roots in
  Fun.protect ~finally:(fun () -> dispose cp) (fun () -> f cp)
