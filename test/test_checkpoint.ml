(* Tests for checkpoint/rollback — the copy-on-write product path
   (paper §6.2) and, through the checkpoint seam, the paper's eager
   Listing 2 oracle — and for the mark-sweep collector that reclaims
   objects discarded by a rollback. *)

open Failatom_runtime

let check = Alcotest.check

let canon heap v = Object_graph.canonical heap v
let graph_equal heap a b = Object_graph.equal (canon heap a) (canon heap b)

let fixture () =
  let heap = Heap.create () in
  let child = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 1) ] in
  let root =
    Heap.alloc_object heap ~cls:"R" [ ("c", Value.Ref child); ("n", Value.Int 0) ]
  in
  (heap, root, child)

(* A strategy runs a test body under one checkpoint implementation:
   the product's copy-on-write one ("lazy"), or the eager oracle
   substituted in through [Checkpoint.substitute] ("eager"). *)
type strategy = Eager | Lazy

let under strategy f =
  match strategy with
  | Eager -> Failatom_oracle.Oracle.with_eager_checkpoints f
  | Lazy -> f ()

let rollback_restores strategy () =
  under strategy @@ fun () ->
  let heap, root, child = fixture () in
  let before = canon heap (Value.Ref root) in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  Heap.set_field heap root "n" (Value.Int 42);
  Heap.set_field heap child "v" (Value.Str "corrupted");
  check Alcotest.bool "mutated" false
    (Object_graph.equal before (canon heap (Value.Ref root)));
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  check Alcotest.bool "rolled back" true
    (Object_graph.equal before (canon heap (Value.Ref root)))

let rollback_alias_visible strategy () =
  under strategy @@ fun () ->
  (* Rollback happens in place: an alias held by someone else observes
     the restored state (unlike a copy-and-swap implementation). *)
  let heap, root, child = fixture () in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  Heap.set_field heap child "v" (Value.Int 9);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  check Alcotest.bool "alias sees rollback" true
    (Heap.get_field heap child "v" = Some (Value.Int 1))

let structural_rollback strategy () =
  under strategy @@ fun () ->
  (* Rolling back must undo link changes, not just scalar fields. *)
  let heap, root, child = fixture () in
  let before = canon heap (Value.Ref root) in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  let intruder = Heap.alloc_object heap ~cls:"L" [ ("v", Value.Int 5) ] in
  Heap.set_field heap root "c" (Value.Ref intruder);
  Heap.set_field heap child "v" (Value.Int 77);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  check Alcotest.bool "links restored" true
    (Object_graph.equal before (canon heap (Value.Ref root)))

let nested_checkpoints strategy () =
  under strategy @@ fun () ->
  let heap, root, _child = fixture () in
  let g0 = canon heap (Value.Ref root) in
  let outer = Checkpoint.take heap [ Value.Ref root ] in
  Heap.set_field heap root "n" (Value.Int 1);
  let g1 = canon heap (Value.Ref root) in
  let inner = Checkpoint.take heap [ Value.Ref root ] in
  Heap.set_field heap root "n" (Value.Int 2);
  Checkpoint.rollback inner;
  Checkpoint.dispose inner;
  check Alcotest.bool "inner rollback to mid state" true
    (Object_graph.equal g1 (canon heap (Value.Ref root)));
  Checkpoint.rollback outer;
  Checkpoint.dispose outer;
  check Alcotest.bool "outer rollback to start" true
    (Object_graph.equal g0 (canon heap (Value.Ref root)))

let test_lazy_copies_on_demand () =
  let heap, root, child = fixture () in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  check Alcotest.int "nothing copied upfront" 0 (Checkpoint.size cp);
  Heap.set_field heap root "n" (Value.Int 5);
  check Alcotest.int "one payload after first write" 1 (Checkpoint.size cp);
  Heap.set_field heap root "n" (Value.Int 6);
  check Alcotest.int "second write to same object free" 1 (Checkpoint.size cp);
  Heap.set_field heap child "v" (Value.Int 7);
  check Alcotest.int "two payloads" 2 (Checkpoint.size cp);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  check Alcotest.bool "lazy rollback correct" true
    (Heap.get_field heap root "n" = Some (Value.Int 0)
     && Heap.get_field heap child "v" = Some (Value.Int 1))

let test_eager_copies_upfront () =
  under Eager @@ fun () ->
  let heap, root, _ = fixture () in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  check Alcotest.int "whole graph copied" 2 (Checkpoint.size cp);
  Checkpoint.dispose cp

let test_dispose_detaches_barrier () =
  let heap, root, _ = fixture () in
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  Checkpoint.dispose cp;
  check Alcotest.bool "barrier removed" true (heap.Heap.on_write = None);
  Heap.set_field heap root "n" (Value.Int 8);
  check Alcotest.int "no recording after dispose" 0 (Checkpoint.size cp)

let test_with_checkpoint_disposes () =
  let heap, root, _ = fixture () in
  Checkpoint.with_checkpoint heap [ Value.Ref root ]
    (fun _cp -> Heap.set_field heap root "n" (Value.Int 3));
  check Alcotest.bool "barrier gone after scope" true (heap.Heap.on_write = None)

(* ---------------- GC ---------------- *)

let test_gc_collects_unreachable () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let keep = Heap.alloc_object heap ~cls:"K" [] in
  let _garbage = Heap.alloc_object heap ~cls:"G" [] in
  Vm.set_global vm "root" (Value.Ref keep);
  let freed = Gc_heap.collect vm in
  check Alcotest.int "one object collected" 1 freed;
  check Alcotest.bool "root survives" true (Heap.mem heap keep)

let test_gc_respects_extra_roots () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let pinned = Heap.alloc_object heap ~cls:"P" [] in
  let freed = Gc_heap.collect ~extra_roots:[ Value.Ref pinned ] vm in
  check Alcotest.int "nothing collected" 0 freed;
  check Alcotest.bool "pinned survives" true (Heap.mem heap pinned)

let test_gc_cyclic_garbage () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let a = Heap.alloc_object heap ~cls:"C" [ ("n", Value.Null) ] in
  let b = Heap.alloc_object heap ~cls:"C" [ ("n", Value.Ref a) ] in
  Heap.set_field heap a "n" (Value.Ref b);
  (* The cycle is unreachable: reference counting would leak it, the
     tracing collector must not (paper §5.1, fourth limitation). *)
  let freed = Gc_heap.collect vm in
  check Alcotest.int "cycle collected" 2 freed

let test_rollback_then_gc () =
  let vm = Vm.create () in
  let heap = vm.Vm.heap in
  let root = Heap.alloc_object heap ~cls:"R" [ ("c", Value.Null) ] in
  Vm.set_global vm "root" (Value.Ref root);
  let cp = Checkpoint.take heap [ Value.Ref root ] in
  let junk = Heap.alloc_object heap ~cls:"J" [] in
  Heap.set_field heap root "c" (Value.Ref junk);
  Checkpoint.rollback cp;
  Checkpoint.dispose cp;
  let freed = Gc_heap.collect vm in
  check Alcotest.int "discarded object reclaimed" 1 freed;
  check Alcotest.bool "junk gone" false (Heap.mem heap junk)

(* ---------------- properties ---------------- *)

(* Random heaps and random mutation storms: after rollback the root's
   canonical form must be exactly the checkpointed one, whatever was
   mutated, linked, or allocated in between — for both strategies. *)
let build_random_graph heap rs n =
  let ids =
    Array.init n (fun i ->
        Heap.alloc_object heap ~cls:(if i mod 2 = 0 then "A" else "B")
          [ ("v", Value.Int (Random.State.int rs 5)); ("p", Value.Null) ])
  in
  Array.iter
    (fun id ->
      if Random.State.bool rs then
        Heap.set_field heap id "p" (Value.Ref ids.(Random.State.int rs n)))
    ids;
  ids

let mutate_randomly heap rs ids steps =
  for _ = 1 to steps do
    let id = ids.(Random.State.int rs (Array.length ids)) in
    match Random.State.int rs 4 with
    | 0 -> Heap.set_field heap id "v" (Value.Int (Random.State.int rs 100))
    | 1 -> Heap.set_field heap id "p" Value.Null
    | 2 ->
      Heap.set_field heap id "p"
        (Value.Ref ids.(Random.State.int rs (Array.length ids)))
    | _ ->
      (* link in a freshly allocated object *)
      let fresh = Heap.alloc_object heap ~cls:"F" [ ("v", Value.Int 0); ("p", Value.Null) ] in
      Heap.set_field heap id "p" (Value.Ref fresh)
  done

let rollback_prop strategy =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "rollback restores random graphs (%s)"
         (match strategy with Eager -> "eager" | Lazy -> "lazy"))
    ~count:100
    QCheck2.Gen.(triple (int_range 1 10) (int_range 1 25) int)
    (fun (n, steps, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let ids = build_random_graph heap rs n in
      let root = Value.Ref ids.(0) in
      let before = canon heap root in
      under strategy (fun () ->
          Checkpoint.with_checkpoint heap [ root ] (fun cp ->
              mutate_randomly heap rs ids steps;
              Checkpoint.rollback cp));
      Object_graph.equal before (canon heap root))

(* Whole-heap identity with the oracle.  The test body holds every id,
   so the root alone is an incomplete description of what the
   mutations can reach: with [~complete:false] the copy-on-write
   rollback must leave exactly the heap the eager copy leaves — every
   payload, reachable from the root or not. *)
let heap_image heap =
  let ids = ref [] in
  Heap.iter_ids heap (fun id -> ids := id :: !ids);
  List.sort compare !ids
  |> List.map (fun id -> (id, canon heap (Value.Ref id)))

let cow_matches_oracle_prop =
  QCheck2.Test.make ~name:"cow rollback leaves the oracle's heap" ~count:100
    QCheck2.Gen.(triple (int_range 1 10) (int_range 1 25) int)
    (fun (n, steps, seed) ->
      let run take =
        let heap = Heap.create () in
        let rs = Random.State.make [| seed |] in
        let ids = build_random_graph heap rs n in
        let rollback = take heap [ Value.Ref ids.(0) ] in
        mutate_randomly heap rs ids steps;
        rollback ();
        heap_image heap
      in
      let cow heap roots =
        let cp = Checkpoint.take ~complete:false heap roots in
        fun () ->
          Checkpoint.rollback cp;
          Checkpoint.dispose cp
      in
      let eager heap roots =
        let cp = Failatom_oracle.Oracle.Eager_checkpoint.take heap roots in
        fun () -> Failatom_oracle.Oracle.Eager_checkpoint.rollback cp
      in
      List.for_all2
        (fun (i, a) (j, b) -> i = j && Object_graph.equal a b)
        (run cow) (run eager))

let nested_rollback_prop =
  QCheck2.Test.make ~name:"nested lazy checkpoints restore in LIFO order" ~count:60
    QCheck2.Gen.(triple (int_range 2 8) (int_range 1 10) int)
    (fun (n, steps, seed) ->
      let heap = Heap.create () in
      let rs = Random.State.make [| seed |] in
      let ids = build_random_graph heap rs n in
      let root = Value.Ref ids.(0) in
      let g0 = canon heap root in
      let outer = Checkpoint.take heap [ root ] in
      mutate_randomly heap rs ids steps;
      let g1 = canon heap root in
      let inner = Checkpoint.take heap [ root ] in
      mutate_randomly heap rs ids steps;
      Checkpoint.rollback inner;
      Checkpoint.dispose inner;
      let mid_ok = Object_graph.equal g1 (canon heap root) in
      Checkpoint.rollback outer;
      Checkpoint.dispose outer;
      mid_ok && Object_graph.equal g0 (canon heap root))

(* The collector never frees anything reachable from the surviving
   roots, and repeated collection is idempotent. *)
let gc_safety_prop =
  QCheck2.Test.make ~name:"gc preserves reachable objects" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let vm = Vm.create () in
      let heap = vm.Vm.heap in
      let rs = Random.State.make [| seed |] in
      let ids = build_random_graph heap rs n in
      let root = Value.Ref ids.(0) in
      Vm.set_global vm "root" root;
      let before = canon heap root in
      ignore (Gc_heap.collect vm);
      let after_first = canon heap root in
      let second = Gc_heap.collect vm in
      Object_graph.equal before after_first && second = 0)

let strategy_cases name strategy =
  [ Alcotest.test_case (name ^ ": rollback restores") `Quick (rollback_restores strategy);
    Alcotest.test_case (name ^ ": alias sees rollback") `Quick (rollback_alias_visible strategy);
    Alcotest.test_case (name ^ ": structural rollback") `Quick (structural_rollback strategy);
    Alcotest.test_case (name ^ ": nested checkpoints") `Quick (nested_checkpoints strategy) ]

let suite =
  strategy_cases "eager" Eager
  @ strategy_cases "lazy" Lazy
  @ [ Alcotest.test_case "lazy copies on demand" `Quick test_lazy_copies_on_demand;
      Alcotest.test_case "eager copies upfront" `Quick test_eager_copies_upfront;
      Alcotest.test_case "dispose detaches barrier" `Quick test_dispose_detaches_barrier;
      Alcotest.test_case "with_checkpoint disposes" `Quick test_with_checkpoint_disposes;
      Alcotest.test_case "gc collects unreachable" `Quick test_gc_collects_unreachable;
      Alcotest.test_case "gc extra roots" `Quick test_gc_respects_extra_roots;
      Alcotest.test_case "gc cyclic garbage" `Quick test_gc_cyclic_garbage;
      Alcotest.test_case "rollback then gc" `Quick test_rollback_then_gc;
      QCheck_alcotest.to_alcotest (rollback_prop Eager);
      QCheck_alcotest.to_alcotest (rollback_prop Lazy);
      QCheck_alcotest.to_alcotest cow_matches_oracle_prop;
      QCheck_alcotest.to_alcotest nested_rollback_prop;
      QCheck_alcotest.to_alcotest gc_safety_prop ]
