(* End-to-end checks of the failatom binary (wired in via FAILATOM_EXE
   by the test stanza): flags that must do what they say, and stored
   artifacts from earlier producers that must stay readable. *)

module Obs = Failatom_obs.Obs

let failatom_exe () =
  match Sys.getenv_opt "FAILATOM_EXE" with
  | Some exe when Sys.file_exists exe -> exe
  | _ -> Alcotest.fail "FAILATOM_EXE does not name the failatom binary"

(* Runs the binary with stdout/stderr discarded; returns the exit code. *)
let run args =
  let exe = failatom_exe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Alcotest.failf "failatom killed by signal %d" n

let with_temp_file suffix f =
  let path = Filename.temp_file "failatom_cli" suffix in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* --metrics-out is honoured by a plain run, not only by --mode production. *)
let test_run_metrics_out () =
  with_temp_file ".json" (fun path ->
      Alcotest.(check int) "exit code" 0 (run [ "run"; "app:LinkedList"; "--metrics-out"; path ]);
      Alcotest.(check bool) "metrics file written" true (Sys.file_exists path);
      let snap = Obs.parse_json (In_channel.with_open_bin path In_channel.input_all) in
      Alcotest.(check bool) "the run recorded interpreter steps" true
        (List.assoc_opt "vm.steps" snap.Obs.s_counters > Some 0))

(* A plan emitted at detect's CLI defaults by an earlier producer (see
   test_prod) arms through the CLI without re-emission. *)
let test_earlier_plan_arms () =
  Alcotest.(check int) "production run accepted the plan" 0
    (run
       [ "run"; "app:LinkedList"; "--mode"; "production"; "--plan";
         Filename.concat "golden" "plan_LinkedList.json"; "--perturb-rate"; "1000" ])

(* Capture is always copy-on-write and bodies always run on compiled
   closures: the capture and engine selection flags are gone, and
   naming them is a usage error, not a silent no-op. *)
let test_retired_flags_rejected () =
  List.iter
    (fun args -> Alcotest.(check int) (String.concat " " args) 2 (run args))
    [ [ "detect"; "app:LinkedList"; "--snapshot-mode"; "cow" ];
      [ "campaign"; "app:LinkedList"; "--snapshot-mode"; "eager" ];
      [ "mask"; "app:LinkedList"; "--snapshot-mode"; "cow" ];
      [ "run"; "app:LinkedList"; "--wrapper-rollback"; "cow" ];
      [ "detect"; "app:LinkedList"; "--engine"; "closures" ];
      [ "campaign"; "app:LinkedList"; "--engine"; "closures" ];
      [ "run"; "app:LinkedList"; "--engine"; "closures" ];
      [ "mask"; "app:LinkedList"; "--engine"; "closures" ];
      [ "analyze"; "app:LinkedList"; "--engine"; "closures" ] ]

(* [profile --flame] writes method-level call counts as folded stacks. *)
let test_profile_flame () =
  with_temp_file ".folded" (fun path ->
      Alcotest.(check int) "exit code" 0
        (run [ "profile"; "app:LinkedList"; "--flame"; path ]);
      let lines =
        String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
      in
      Alcotest.(check bool) "at least one calls; line" true
        (List.exists (String.starts_with ~prefix:"calls;") lines))

let suite =
  [ Alcotest.test_case "run --metrics-out in normal mode" `Quick test_run_metrics_out;
    Alcotest.test_case "earlier plan arms via run" `Quick test_earlier_plan_arms;
    Alcotest.test_case "retired capture flags rejected" `Quick
      test_retired_flags_rejected;
    Alcotest.test_case "profile --flame writes call counts" `Quick test_profile_flame ]
