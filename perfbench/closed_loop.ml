(* The two closed-loop workloads: one client, each request waits for the
   previous one. *)

open Pass

(* ---- batch-zoo: closed loop, one client, plan + execute_plan ---- *)

let batch_zoo seed =
  let zoo =
    List.filter (fun w -> w.Zoo.name <> "netflix_extended") (Zoo.make seed)
  in
  let entries =
    span "bench.datagen" (fun () ->
        List.map (fun w -> (w.Zoo.name, Zoo.load_hdfs [ w ])) zoo)
  in
  let graphs =
    List.map (fun (name, hdfs) -> (name, hdfs, (Zoo.find zoo name).parse ()))
      entries
  in
  let m =
    span "bench.create" (fun () -> Musketeer.create ~cluster:(cluster ()) ())
  in
  (* one request: its wall, its planning wall, the plan, the outcome and
     the words execute_plan allocated. The wall is read outside the
     request's span, so the traced run can check the layers against a
     clock the spans do not share. *)
  let request id (name, hdfs, g) =
    let t0 = now () in
    let plan_s, planned, result, words =
      span ~attrs:[ ("request", Obs.Trace.Int id);
                    ("workflow", Obs.Trace.String name) ]
        "bench.request"
      @@ fun () ->
      let h = span "bench.snapshot" (fun () -> Engines.Hdfs.snapshot hdfs) in
      let p0 = now () in
      let planned =
        span "bench.plan" (fun () -> Musketeer.plan m ~workflow:name ~hdfs:h g)
      in
      let plan_s = secs p0 (now ()) in
      let a0 = alloc_words () in
      let result =
        match planned with
        | None -> Error "no feasible plan"
        | Some (p, g') ->
          span "bench.execute_plan" (fun () ->
              Musketeer.execute_plan m ~workflow:name ~hdfs:h ~graph:g' p)
          |> Result.map_error Engines.Report.error_to_string
      in
      (plan_s, planned, result, alloc_words () -. a0)
    in
    (secs t0 (now ()), plan_s, planned, result, words)
  in
  (* warm-up: one pass seeds the history, as a deployed manager has *)
  List.iteri (fun i e -> ignore (request i e)) graphs;
  let reference =
    memo (fun name ->
        let _, hdfs, g = List.find (fun (n, _, _) -> n = name) graphs in
        Zoo.reference hdfs g)
  in
  let run_pass pass =
    (* each pass draws a seeded order of the ten workflows, each once *)
    let order = shuffle ~seed ~pass graphs in
    let results, reg =
      with_counts (fun () ->
          List.mapi (fun i e -> (e, request ((pass * 100) + i) e)) order)
    in
    (* untimed: output check against Interp *)
    let failures = ref [] and mismatched = ref false in
    let lat = ref [] and modeled = ref [] and virt = ref [] in
    let sig_ = ref [] and alloc = ref 0. in
    let nodes = ref 0 and nodes_out = ref 0 and jobs = ref 0 and bytes = ref 0 in
    List.iter
      (fun ((name, _, g), (wall, plan_s, planned, result, words)) ->
         lat := (name, wall) :: !lat;
         alloc := !alloc +. words;
         nodes := !nodes + Ir.Dag.operator_count g;
         Option.iter
           (fun ((p : Musketeer.Partitioner.plan), g') ->
              nodes_out := !nodes_out + Ir.Dag.operator_count g';
              jobs := !jobs + List.length p.jobs;
              (* the source execute_plan's codegen renders for this plan *)
              bytes := !bytes + code_bytes (Musketeer.show_code ~graph:g' p))
           planned;
         match result with
         | Error e ->
           mismatched := true;
           failures := (name ^ ": " ^ e) :: !failures
         | Ok (r : Musketeer.Executor.result) ->
           modeled := r.makespan_s :: !modeled;
           (* one client, no queue: arrival->finish is the service time
              the serve layer charges, makespan + planner wall *)
           virt := (r.makespan_s +. plan_s) :: !virt;
           sig_ := (Printf.sprintf "%s %h" name r.makespan_s, 0.) :: !sig_;
           (match Zoo.check (reference name) r.outputs with
            | None -> ()
            | Some d ->
              mismatched := true;
              failures := (name ^ ": " ^ d) :: !failures))
      results;
    { requests = List.length results; failures = !failures;
      mismatched = !mismatched;
      wall_s = Stats.sum (List.map snd !lat); lat_s = !lat; modeled_s = !modeled;
      virtual_s = !virt; goodput_wps = closed_goodput !virt;
      queue_delay_s = [];
      signature = List.sort compare !sig_;
      alloc_mwords = !alloc /. 1e6;
      counts =
        ir_counts ~nodes:!nodes ~nodes_out:!nodes_out ~jobs:!jobs ~bytes:!bytes
        @ reg;
      summary = None; open_flights = 0 }
  in
  { run_pass; distinct = 1; max_rate = no_rate_ladder }

(* ---- plan-zoo: closed loop, one client, compile only ---- *)

let plan_zoo seed =
  let zoo = Zoo.make seed in
  let hdfs = span "bench.datagen" (fun () -> Zoo.load_hdfs zoo) in
  let m =
    span "bench.create" (fun () -> Musketeer.create ~cluster:(cluster ()) ())
  in
  (* one executed run per workflow seeds the history *)
  List.iter
    (fun (w : Zoo.workflow) ->
       let h = Engines.Hdfs.snapshot hdfs in
       match Musketeer.plan m ~workflow:w.name ~hdfs:h (w.parse ()) with
       | None -> ()
       | Some (p, g') ->
         ignore
           (Musketeer.execute_plan ~record_history:true m ~workflow:w.name
              ~hdfs:h ~graph:g' p))
    zoo;
  let backends = Engines.Breaker.filter_candidates Engines.Backend.all in
  let request id (w : Zoo.workflow) =
    let t0 = now () in
    let g, g', plan, code =
      span ~attrs:[ ("request", Obs.Trace.Int id);
                    ("workflow", Obs.Trace.String w.name) ]
        "bench.request"
      @@ fun () ->
      let g = span "bench.parse" w.parse in
      let g' =
        span "bench.optimize_ir" (fun () -> Musketeer.optimize_ir ~hdfs g)
      in
      let est =
        span "bench.estimator" (fun () ->
            Musketeer.estimator m ~workflow:w.name ~hdfs g')
      in
      let plan =
        span "bench.partition" (fun () ->
            Musketeer.Partitioner.partition ~profile:(Musketeer.profile m) ~est
              ~backends g')
      in
      let code =
        match plan with
        | None -> []
        | Some p ->
          span "bench.show_code" (fun () -> Musketeer.show_code ~graph:g' p)
      in
      (g, g', plan, code)
    in
    (secs t0 (now ()), g, g', plan, code)
  in
  List.iteri (fun i w -> ignore (request i w)) zoo;
  let expected =
    memo (fun name ->
        let w = Zoo.find zoo name in
        Musketeer.plan m ~workflow:name ~hdfs (w.parse ()))
  in
  let run_pass pass =
    let order = shuffle ~seed ~pass zoo in
    let results, reg =
      with_counts (fun () ->
          List.mapi (fun i w -> (w, request ((pass * 100) + i) w)) order)
    in
    let failures = ref [] in
    let lat = ref [] and modeled = ref [] and virt = ref [] and sig_ = ref [] in
    let nodes = ref 0 and nodes_out = ref 0 and jobs = ref 0 and bytes = ref 0 in
    List.iter
      (fun ((w : Zoo.workflow), (wall, g, g', plan, code)) ->
         lat := (w.name, wall) :: !lat;
         nodes := !nodes + Ir.Dag.operator_count g;
         nodes_out := !nodes_out + Ir.Dag.operator_count g';
         bytes := !bytes + code_bytes code;
         Option.iter (fun (p : Musketeer.Partitioner.plan) ->
             jobs := !jobs + List.length p.jobs) plan;
         let fail d = failures := (w.name ^ ": " ^ d) :: !failures in
         match plan, expected w.name with
         | None, _ -> fail "no feasible plan"
         | Some _, None -> fail "Musketeer.plan found no plan"
         | Some (p : Musketeer.Partitioner.plan), Some (q, qg) ->
           if p.jobs <> q.jobs || p.cost_s <> q.cost_s
              || Ir.Dag.canonical_hash g' <> Ir.Dag.canonical_hash qg
           then fail "decomposed plan differs from Musketeer.plan"
           else begin
             (* nothing executes: the modeled makespan is the cost
                model's prediction for the chosen mapping *)
             modeled := p.cost_s :: !modeled;
             virt := (p.cost_s +. wall) :: !virt;
             sig_ :=
               ( Printf.sprintf "%s %h %d %d" w.name p.cost_s
                   (List.length p.jobs) (code_bytes code),
                 0. )
               :: !sig_
           end)
      results;
    { requests = List.length results; failures = !failures;
      mismatched = !failures <> []; wall_s = Stats.sum (List.map snd !lat);
      lat_s = !lat;
      modeled_s = !modeled; virtual_s = !virt;
      goodput_wps = closed_goodput !virt; queue_delay_s = [];
      signature = List.sort compare !sig_;
      alloc_mwords = 0.;
      counts =
        ir_counts ~nodes:!nodes ~nodes_out:!nodes_out ~jobs:!jobs ~bytes:!bytes
        @ reg;
      summary = None; open_flights = 0 }
  in
  { run_pass; distinct = 1; max_rate = no_rate_ladder }
