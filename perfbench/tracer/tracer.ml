(* The benchmark's traced run: re-drives what one `failatom` command does
   through the public functions of each layer, wrapping every call in a
   span recorded here, outside the program.  Spans stay in memory and are
   printed once, at the end, as one JSON object on stdout; perfbench/run.py
   turns them into per-layer self times and a Chrome trace.

   Usage:
     tracer.exe audit LOGDIR PROGRAM...
       PROGRAM is NAME or NAME@N (N = --schedules N).  Re-drives
       `failatom detect app:NAME` under CLI defaults and writes the run log
       of each program to LOGDIR/NAME.log.
     tracer.exe production PLANDIR TIMES RATE SEED APP...
       Re-drives `failatom run app:APP --mode production --plan
       PLANDIR/APP.plan --times TIMES`, quiet and with the canary at RATE
       per mille, plus the same runs without wrappers.
     tracer.exe service SOCKET JOB...
       JOB is NAME[@N]:FLAVOR.  Submits each job twice (cold, then warm)
       to the daemon on SOCKET, as `failatom submit` does. *)

open Failatom_core
open Failatom_minilang
open Failatom_runtime
module Obs = Failatom_obs.Obs
module Registry = Failatom_apps.Registry
module Plan = Failatom_prod.Plan
module Armed = Failatom_prod.Armed
module Perturb = Failatom_prod.Perturb
module Client = Failatom_server.Client
module Protocol = Failatom_server.Protocol

(* ---------------- spans ---------------- *)

type span = { id : int; parent : int; op : int; name : string; t0 : int; t1 : int }

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_op = ref 0
let ops : Json.t list ref = ref []

let current () = match !stack with p :: _ -> p | [] -> 0

let add_span ~parent name t0 t1 =
  incr next_id;
  spans := { id = !next_id; parent; op = !cur_op; name; t0; t1 } :: !spans

(* [rename] sees the call's result, so a run can be named after what it
   turned out to be (an injection run or the no-injection probe). *)
let span_with name rename f =
  incr next_id;
  let id = !next_id and parent = current () in
  stack := id :: !stack;
  let t0 = Obs.now_ns () in
  let finish name =
    let t1 = Obs.now_ns () in
    stack := List.tl !stack;
    spans := { id; parent; op = !cur_op; name; t0; t1 } :: !spans
  in
  match f () with
  | v ->
    finish (rename v);
    v
  | exception e ->
    finish name;
    raise e

let span name f = span_with name (fun _ -> name) f

(* One operation: a root span named "op" plus the facts the benchmark
   checks, tagged with the op id every child span carries. *)
let op kind program f =
  incr cur_op;
  let facts = span "op" f in
  ops :=
    Json.Obj
      ([ ("op", Json.Int !cur_op); ("kind", Json.Str kind); ("program", Json.Str program) ]
      @ facts)
    :: !ops

let strs l = Json.List (List.map (fun s -> Json.Str s) l)

(* ---------------- audit: `failatom detect app:NAME` ---------------- *)

(* The CLI's --schedules N expansion. *)
let expand_schedules = function
  | None -> Config.default.Config.schedules
  | Some n -> "coop" :: List.init (n - 1) (fun i -> Printf.sprintf "slice:%d" (i + 1))

let split_program spec =
  match String.split_on_char '@' spec with
  | [ name ] -> (name, None)
  | [ name; n ] -> (name, Some (int_of_string n))
  | _ -> failwith ("bad program spec " ^ spec)

let source_of name =
  match Registry.find name with
  | Some app -> app.Registry.source
  | None -> failwith ("unknown application " ^ name)

let prepare (_ : Vm.t) = ()

let run_span compiled config analyzer ?trace ?schedule threshold =
  span_with "inject.run"
    (fun ((r : Marks.run_record), _) ->
      if r.Marks.injected = None then "inject.probe" else "inject.run")
    (fun () ->
      Detect.run_once_ext ?trace ?schedule compiled config analyzer ~prepare ~threshold)

(* Detect.run under CLI defaults (source weaving, eager snapshots,
   coalesce pruning), one public call per layer, in Detect.run's order. *)
let detect_traced name schedules_n =
  let program = span "parse" (fun () -> Minilang.parse (source_of name)) in
  let config =
    { Config.default with
      Config.prune = Config.Prune_coalesce;
      schedules = expand_schedules schedules_n }
  in
  let concurrent = Minilang.uses_concurrency program in
  let config = if concurrent then { config with Config.prune = Config.Prune_off } else config in
  let policies =
    if not concurrent then [ ("coop", Sched.Coop) ]
    else
      List.map
        (fun s -> (s, Option.get (Sched.policy_of_string s)))
        (match config.Config.schedules with [] -> [ "coop" ] | l -> l)
  in
  let plain = span "compile.image" (fun () -> Compile.image program) in
  let flow =
    if concurrent then None
    else Some (span "exnflow" (fun () -> Exnflow.analyze plain program))
  in
  let analyzer = span "analyzer" (fun () -> Analyzer.analyze config program) in
  let profile = span "profile" (fun () -> Profile.of_image ~prepare plain) in
  let compiled =
    span "weave" (fun () -> Detect.compile ~plain Detect.Source_weaving program)
  in
  let run = run_span compiled config analyzer in
  let runs, transparent, probes =
    match flow with
    | Some flow ->
      (* No run timeout is configured, so neither the census nor a
         representative can time out: Detect's fallbacks never apply. *)
      let census, extras =
        span "census" (fun () ->
            Detect.run_once_ext ~trace:true compiled config analyzer ~prepare ~threshold:0)
      in
      let plan =
        span "prune.build" (fun () -> Prune.build flow ~entries:extras.Detect.entries)
      in
      let records =
        List.concat_map
          (fun g ->
            let rep_record, ex = run (fst (Prune.rep g)) in
            rep_record
            :: span "prune.synth" (fun () ->
                   Prune.synthesize g ~rep_record
                     ~injected_escaped:ex.Detect.injected_escaped))
          plan.Prune.groups
      in
      let records =
        List.sort
          (fun a b -> compare a.Marks.injection_point b.Marks.injection_point)
          records
      in
      let probe = { census with Marks.injection_point = plan.Prune.frontier } in
      ( records @ [ probe ],
        String.equal census.Marks.output profile.Profile.output,
        1 )
    | None ->
      let runs, transparent =
        List.fold_left
          (fun (acc, transp) (spec, policy) ->
            span "sched.schedule" @@ fun () ->
            let baseline =
              match policy with
              | Sched.Coop -> profile.Profile.output
              | Sched.Slice _ | Sched.Pct _ ->
                span "sched.baseline" (fun () ->
                    Detect.baseline_under plain ~prepare policy)
            in
            let rec loop threshold acc =
              let record, _ = run ~schedule:(spec, policy) threshold in
              match record.Marks.injected with
              | Some _ -> loop (threshold + 1) (record :: acc)
              | None ->
                (List.rev (record :: acc), String.equal record.Marks.output baseline)
            in
            let runs, t = loop 1 [] in
            (acc @ runs, transp && t))
          ([], true) policies
      in
      (runs, transparent, List.length policies)
  in
  let result =
    { Detect.flavor = Detect.Source_weaving;
      config;
      analyzer;
      profile;
      runs;
      injections = List.length runs - probes;
      transparent }
  in
  let classification = span "classify" (fun () -> Classify.classify result) in
  (result, classification)

let audit logdir programs =
  Obs.set_enabled true;
  Obs.reset ();
  List.iter
    (fun spec ->
      let name, schedules_n = split_program spec in
      op "audit" spec (fun () ->
          let result, classification = detect_traced name schedules_n in
          (* the CLI writes its --log inside the op too *)
          Out_channel.with_open_bin (Filename.concat logdir (name ^ ".log"))
            (fun oc -> output_string oc (Run_log.save result));
          let ids f = List.map Method_id.to_string (f classification) in
          [ ("injections", Json.Int result.Detect.injections);
            ("transparent", Json.Bool result.Detect.transparent);
            ("schedules", Json.Int (List.length (expand_schedules schedules_n)));
            ("pure", strs (ids Classify.pure_methods));
            ("conditional", strs (ids Classify.conditional_methods)) ]))
    programs;
  let snap = Obs.snapshot () in
  let counter n = Option.value ~default:0 (List.assoc_opt n snap.Obs.s_counters) in
  let hist_sum n =
    match List.assoc_opt n snap.Obs.s_histograms with
    | Some h -> h.Obs.hs_sum
    | None -> 0
  in
  Obs.set_enabled false;
  [ ("vm.steps", Json.Int (counter "vm.steps"));
    ("detect.snapshots_taken", Json.Int (counter "detect.snapshots_taken"));
    ("heap.barrier_hits", Json.Int (counter "heap.barrier_hits"));
    ("detect.canonicalize_ns", Json.Int (hist_sum "detect.canonicalize"));
    ("compile.instantiate_ns", Json.Int (hist_sum "compile.instantiate")) ]

(* ---------------- production: `failatom run --mode production` ---------------- *)

let run_main vm = try ignore (Compile.run_main vm) with Vm.Mini_raise _ -> ()

let production plandir times rate seed apps =
  let armed_stats armed =
    let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 (Armed.per_method armed) in
    [ ("calls", Json.Int (Armed.calls armed));
      ("hits", Json.Int (Armed.hits armed));
      ("wrap_ns", Json.Int (sum (fun s -> s.Armed.ms_wrap_ns)));
      ("rollback_ns", Json.Int (sum (fun s -> s.Armed.ms_rollback_ns))) ]
  in
  List.iter
    (fun name ->
      let plan_text =
        In_channel.with_open_bin (Filename.concat plandir (name ^ ".plan"))
          In_channel.input_all
      in
      (* Parse, plan load and image compile: the same prefix as the CLI. *)
      let prefix () =
        let program = span "parse" (fun () -> Minilang.parse (source_of name)) in
        let plan =
          span "plan" (fun () ->
              match Plan.of_string plan_text with
              | Error msg -> failwith msg
              | Ok plan -> (
                match
                  Plan.validate plan ~program_digest:(Minilang.program_digest program)
                with
                | Ok () -> plan
                | Error msg -> failwith msg))
        in
        (span "compile.image" (fun () -> Compile.image program), Plan.target_set plan)
      in
      (* [arming targets] builds an op's wrappers once and returns them
         with the function that arms one VM. *)
      let runs arming exec_name =
        let image, targets = prefix () in
        let wrappers, arm = arming targets in
        let output = ref "" in
        for _ = 1 to times do
          let vm = span "vm.instantiate" (fun () -> Compile.instantiate image) in
          span "arm" (fun () -> arm vm);
          span exec_name (fun () -> run_main vm);
          output := Vm.output vm
        done;
        (wrappers, !output)
      in
      let armed targets = Armed.create ~config:Config.default ~targets () in
      op "production" name (fun () ->
          let a, output = runs (fun targets -> let a = armed targets in (a, Armed.arm a)) "exec" in
          ("output", Json.Str output) :: armed_stats a);
      op "plain" name (fun () ->
          let (), output = runs (fun _ -> ((), fun (_ : Vm.t) -> ())) "plain.exec" in
          [ ("output", Json.Str output) ]);
      op "canary" name (fun () ->
          let (a, p), output =
            runs
              (fun targets ->
                let a = armed targets
                and p =
                  Perturb.create ~rate_per_mille:rate ~point:Perturb.At_exit
                    ~config:Config.default ~targets ~seed ()
                in
                ( (a, p),
                  fun vm ->
                    Perturb.arm_igniter p vm;
                    Armed.arm a vm;
                    Perturb.arm_canary p vm ))
              "canary.exec"
          in
          [ ("output", Json.Str output);
            ("fired", Json.Int (Perturb.fired p));
            ("validated", Json.Int (Perturb.validated p));
            ("interfered", Json.Int (Perturb.interfered p));
            ("failed", Json.Int (Perturb.failed p));
            ("retries", Json.Int (Perturb.retries p)) ]
          @ armed_stats a))
    apps;
  []

(* ---------------- service: `failatom submit` against a daemon ---------------- *)

let service socket jobs =
  Client.with_conn ~socket_path:socket (fun conn ->
      List.iter
        (fun spec ->
          let prog, flavor =
            match String.split_on_char ':' spec with
            | [ p; f ] -> (p, Option.get (Protocol.flavor_of_name f))
            | _ -> failwith ("bad job spec " ^ spec)
          in
          let name, schedules_n = split_program prog in
          (* what `failatom submit app:NAME --flavor F [--schedules N]` sends *)
          let req =
            { (Protocol.default_request Protocol.Detect (Protocol.App name)) with
              Protocol.flavor = Some flavor;
              prune = Config.Prune_coalesce;
              schedules =
                (match schedules_n with
                 | None -> []
                 | Some _ -> expand_schedules schedules_n) }
          in
          List.iter
            (fun kind ->
              op kind spec (fun () ->
                  let id, cached = span "rpc.submit" (fun () -> Client.submit conn req) in
                  let t_queued = ref 0 and t_running = ref 0 in
                  let outcome =
                    span "rpc.watch" (fun () ->
                        let watch = current () in
                        let outcome =
                          Client.watch conn id ~on_event:(function
                            | Protocol.Ev_state "queued" -> t_queued := Obs.now_ns ()
                            | Protocol.Ev_state "running" -> t_running := Obs.now_ns ()
                            | _ -> ())
                        in
                        let t_done = Obs.now_ns () in
                        (* Server-side intervals, placed on the client's
                           clock from the events that bound them. *)
                        if !t_queued > 0 && !t_running >= !t_queued then
                          add_span ~parent:watch "server.queue" !t_queued !t_running;
                        (match outcome with
                         | Client.Completed ({ Protocol.r_summary = Some s; _ }, false) ->
                           let wall = int_of_float (s.Protocol.wall_s *. 1e9) in
                           add_span ~parent:watch "campaign.run"
                             (max (t_done - wall) !t_running) t_done
                         | _ -> ());
                        outcome)
                  in
                  match outcome with
                  | Client.Completed (r, _) ->
                    let summary f =
                      match r.Protocol.r_summary with Some s -> f s | None -> Json.Int 0
                    in
                    [ ("cached", Json.Bool cached);
                      ("injections", Json.Int r.Protocol.r_injections);
                      ("transparent", Json.Bool r.Protocol.r_transparent);
                      ( "non_atomic",
                        Json.List
                          (List.map
                             (fun (m, v) -> Json.List [ Json.Str m; Json.Str v ])
                             r.Protocol.r_non_atomic) );
                      ("wall_s", summary (fun s -> Json.Float s.Protocol.wall_s));
                      ("executed", summary (fun s -> Json.Int s.Protocol.executed));
                      ("synthesized", summary (fun s -> Json.Int s.Protocol.synthesized)) ]
                  | Client.Job_failed msg -> failwith ("job failed: " ^ msg)
                  | Client.Job_cancelled -> failwith "job cancelled"
                  | Client.Job_timed_out -> failwith "job timed out"))
            [ "cold"; "warm" ])
        jobs;
      let stats = Obs.parse_json (Client.stats conn) in
      [ ( "server.jobs_rejected",
          Json.Int
            (Option.value ~default:0
               (List.assoc_opt "server.jobs_rejected" stats.Obs.s_counters)) ) ])

(* ---------------- output ---------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let counters =
    match args with
    | "audit" :: logdir :: programs -> audit logdir programs
    | "production" :: plandir :: times :: rate :: seed :: apps ->
      production plandir (int_of_string times) (int_of_string rate)
        (int_of_string seed) apps
    | "service" :: socket :: jobs -> service socket jobs
    | _ ->
      prerr_endline "usage: tracer.exe (audit|production|service) ...";
      exit 2
  in
  let span_json s =
    Json.List
      [ Json.Int s.id; Json.Int s.parent; Json.Int s.op; Json.Str s.name;
        Json.Int s.t0; Json.Int s.t1 ]
  in
  print_string
    (Json.to_string
       (Json.Obj
          [ ("spans", Json.List (List.rev_map span_json !spans));
            ("ops", Json.List (List.rev !ops));
            ("counters", Json.Obj counters) ]));
  print_newline ()
