(* Repo benchmark: three workloads over the library's public functions.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   --trace 0 times the workload with tracing off and prints the
   end-to-end metrics; --trace 1 alternates untraced and traced passes
   and prints the per-layer metrics, writing the traced spans as a
   Chrome trace plus a per-layer self-time table into DIR. Every
   output is checked against [Ir.Interp] on the unoptimized graph
   outside the timed regions; a mismatch, an error or a modeled/virtual
   value that drifts between identical passes exits non-zero. The last
   stdout line is one JSON object: correct, attempted, failed, metrics. *)

open Pass
open Open_loop

type workload = {
  name : string;
  loop : string;
  clients : string;
  virtual_clock : string;
  setup : int -> runner;
}

(* ---- the three workloads ---- *)

let workloads =
  [ { name = "batch-zoo"; loop = "closed"; clients = "1 client";
      virtual_clock =
        "one client, no queue: virtual latency = modeled makespan + \
         planner wall s (the serve layer's service time); no SLO";
      setup = Closed_loop.batch_zoo };
    { name = "plan-zoo"; loop = "closed"; clients = "1 client";
      virtual_clock =
        "compile only: modeled = the cost model's predicted makespan of \
         the chosen mapping; virtual latency = that + planner wall s; \
         no SLO";
      setup = Closed_loop.plan_zoo };
    { name = "serve-churn"; loop = "open";
      clients =
        Printf.sprintf "Poisson %g/s virtual, %d submissions, an overwrite \
                        before every %d, ladder x%s"
          nominal_rate submissions segment
          (String.concat "," (List.map (Printf.sprintf "%g") ladder));
      virtual_clock =
        "serve virtual seconds = simulated makespan + planner wall s";
      setup = serve } ]

(* ---- reporting ---- *)

type metric = {
  m_name : string;
  value : float;
  unit_ : string;
  clock : string;
  note : string;
}

let metric ?(note = "") m_name value unit_ clock =
  { m_name; value; unit_; clock; note }

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> (mb, "VmHWM")
  | None ->
    ( float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.,
      "GC top heap (no /proc)" )

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
       Printf.printf "  %-28s %14.6g %-10s [%s]%s\n" m.m_name m.value m.unit_
         m.clock
         (if m.note = "" then "" else "  " ^ m.note))
    metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
             Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
               (num m.value) m.unit_)
          metrics))

(* The first request where a repeat of a pass differs from it. *)
let drift (first : pass) (p : pass) =
  let same (k, v) (k', v') = k = k' && Float.abs (v -. v') <= virtual_jitter_s in
  if List.compare_lengths first.signature p.signature <> 0 then
    Some "different request counts"
  else
    List.find_map
      (fun (a, b) ->
         if same a b then None
         else Some (Printf.sprintf "%s (%.3f) vs %s (%.3f)" (fst a) (snd a) (fst b) (snd b)))
      (List.combine first.signature p.signature)

let tail_note p n =
  if p = 50. then Printf.sprintf "median of n=%d: under 21 samples, no tail above it" n
  else Printf.sprintf "p%.2f of n=%d" p n

let failed_share passes =
  let attempted = List.fold_left (fun a p -> a + p.requests) 0 passes in
  let failed = List.fold_left (fun a p -> a + List.length p.failures) 0 passes in
  (attempted, failed)

let report_failures passes =
  let attempted, failed = failed_share passes in
  Printf.printf "failed_share %.6g (%d of %d) [ratio]\n" 
    (if attempted > 0 then float_of_int failed /. float_of_int attempted else 0.)
    failed attempted;
  List.iteri
    (fun i d -> if i < 10 then Printf.printf "  failure: %s\n" d)
    (List.concat_map (fun p -> List.rev p.failures) passes)

(* Each pass against the first pass that ran the same inputs (inputs
   [idx mod distinct]): signatures and registry counts must agree. *)
let check_repeats ~distinct (passes : (int * pass) list) =
  let reference = Hashtbl.create 16 in
  List.concat_map
    (fun (idx, p) ->
       let key = idx mod distinct in
       match Hashtbl.find_opt reference key with
       | None -> Hashtbl.replace reference key (idx, p); []
       | Some (j, r) ->
         let say d = Printf.sprintf "pass %d drifted from pass %d: %s" idx j d in
         Option.to_list (Option.map say (drift r p))
         @ List.filter_map
             (fun (k, v) ->
                if List.assoc_opt k p.counts = Some v then None
                else Some (say ("count " ^ k)))
             r.counts)
    passes

let setup_reps = 5

(* Set-up repeats at least [setup_reps] times and until this much wall
   time is spent, so a set-up of tens of ms still takes its median over
   enough samples to ride out a slow moment of the host. *)
let setup_min_s = 2.

(* Whole passes run until --seconds is up. A closed loop makes at least
   this many, so every workflow of its mix contributes 21 samples: the
   wall tail (the 11th largest) then lies at or above the slowest
   workflow's median, inside its band. With fewer passes it sinks to
   that band's lowest samples, where the next slowest workflow's
   outliers take its place (batch-zoo: kmeans against netflix). The open
   loop makes at least one pass per distinct trace, and one repeat. *)
let min_closed_passes = 21

let end_to_end (w : workload) ~seed ~seconds =
  (* each set-up and the timed loop start from a compacted heap, and
     only the last set-up's runner stays live, so an earlier set-up's
     data sets neither the peak RSS nor the major collector's work in
     the timed loop *)
  let rec set_up times =
    Gc.compact ();
    let t0 = now () in
    let r = w.setup seed in
    let times = secs t0 (now ()) :: times in
    if List.length times >= setup_reps && Stats.sum times >= setup_min_s then
      (times, r)
    else set_up times
  in
  let setup_times, runner = set_up [] in
  Gc.compact ();
  Obs.Metrics.reset Obs.Metrics.default;
  let closed = w.loop = "closed" in
  let min_passes = if closed then min_closed_passes else runner.distinct + 1 in
  let t0 = now () in
  let rec loop i acc =
    let p = runner.run_pass i in
    let acc = p :: acc in
    if i + 1 < min_passes || secs t0 (now ()) < seconds then loop (i + 1) acc
    else List.rev acc
  in
  let passes = loop 0 [] in
  let drifts =
    check_repeats ~distinct:runner.distinct (List.mapi (fun i p -> (i, p)) passes)
  in
  let first = List.hd passes in
  let all f = List.concat_map f passes in
  (* modeled and virtual metrics come from passes with distinct inputs
     only, so they do not depend on how many passes the time allowed *)
  let distinct = List.filteri (fun i _ -> i < runner.distinct) passes in
  let each f = List.concat_map f distinct in
  let requests = List.fold_left (fun a p -> a + p.requests) 0 passes in
  let timed = Stats.sum (List.map (fun p -> p.wall_s) passes) in
  let lat_ms = List.map (fun (_, s) -> s *. 1000.) (all (fun p -> p.lat_s)) in
  let tail_ms, tail_p, tail_n = Stats.tail lat_ms in
  (* wall samples by label: workflow (closed loops) or drive segment *)
  let by_label =
    List.map
      (fun l ->
         ( l,
           List.filter_map
             (fun (l', s) -> if l = l' then Some (s *. 1000.) else None)
             (all (fun p -> p.lat_s)) ))
      (List.sort_uniq compare (List.map fst first.lat_s))
  in
  (* Each workflow counts once, as the uniform draw weighs them: its
     median latency, then the geometric mean over workflows, so a
     speed-up of any one workflow moves it. The pooled median of ten
     workflows' latency bands lies in the gap between the fifth and the
     sixth, and a median over workflows is the mean of those two alone,
     so one workflow's noise (sssp's median moves by half between runs
     of one seed) sets it. *)
  let wall_p50 = Stats.geomean (List.map (fun (_, v) -> Stats.median v) by_label) in
  (* closed loops sample the virtual clock on every pass (it carries the
     planner's wall seconds); the open loop pools its seeded traces *)
  let virt = if closed then all (fun p -> p.virtual_s) else each (fun p -> p.virtual_s) in
  (* an open loop's tail is the median over its traces of each trace's
     tail: one trace's worst burst does not set it *)
  let vtail, vtail_note =
    if closed then
      let t, p, n = Stats.tail virt in
      (t, tail_note p n)
    else
      let tails = List.map (fun p -> Stats.tail p.virtual_s) distinct in
      let _, p, n = List.hd tails in
      ( Stats.median (List.map (fun (t, _, _) -> t) tails),
        Printf.sprintf "p%.2f of n=%d per trace, median of %d traces" p n
          (List.length tails) )
  in
  let goodput =
    if closed then closed_goodput virt
    else Stats.mean (List.map (fun p -> p.goodput_wps) distinct)
  in
  let rss, rss_src = peak_rss_mb () in
  let lat_unit =
    if closed then "per request" else "per submission: segment wall / segment size"
  in
  let metrics =
    [ metric "setup_s" (Stats.median setup_times) "s" "wall"
        ~note:(Printf.sprintf "median of %d set-ups" (List.length setup_times));
      metric "req_per_s" (float_of_int requests /. timed) "1/s" "wall"
        ~note:
          (Printf.sprintf "%d requests in %.3f timed s, %d passes" requests
             timed (List.length passes));
      metric "wall_p50_ms" wall_p50 "ms" "wall"
        ~note:(Printf.sprintf "%s; geometric mean over %d %s of each one's median" lat_unit
                 (List.length by_label) (if closed then "workflows" else "segments"));
      metric "wall_tail_ms" tail_ms "ms" "wall"
        ~note:(tail_note tail_p tail_n);
      metric "makespan_geomean_s" (Stats.geomean (each (fun p -> p.modeled_s)))
        "s" "modeled"
        ~note:(if w.name = "plan-zoo" then "predicted by the cost model" else "");
      metric "vlat_p50_s" (Stats.median virt) "s" "virtual";
      metric "vlat_tail_s" vtail "s" "virtual" ~note:vtail_note;
      metric "goodput_wps" goodput "1/s" "virtual"
        ~note:(if closed then "" else Printf.sprintf "SLO %gs, mean of %d traces" slo_s runner.distinct);
      metric "peak_rss_mb" rss "MB" "wall" ~note:rss_src ]
  in
  report_failures passes;
  List.iter (fun d -> Printf.printf "DRIFT: %s\n" d) drifts;
  List.iter
    (fun (l, own) ->
       Printf.printf "  %-18s wall p50 %9.3f ms  max %9.3f ms  n=%d\n" l
         (Stats.median own) (List.fold_left Float.max 0. own) (List.length own))
    by_label;
  Printf.printf "passes %d; virtual clock: %s\n" (List.length passes)
    w.virtual_clock;
  let attempted, failed = failed_share passes in
  let correct =
    drifts = []
    && List.for_all (fun p -> p.open_flights = 0 && not p.mismatched) passes
  in
  print_result ~correct ~attempted ~failed metrics;
  correct

(* ---- the traced run: per-layer metrics ---- *)

let write_file dir name content =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Obs.Export.write_file content ~filename:(Filename.concat dir name)

let per_layer (w : workload) ~seed ~seconds ~out =
  let setup_trace, runner = Obs.Trace.collecting (fun () -> w.setup seed) in
  Gc.compact ();
  let setup_layers = Layers.attribute (Obs.Trace.spans setup_trace) in
  (* calibration probe jobs stay out of the workload's counts *)
  Obs.Metrics.reset Obs.Metrics.default;
  let t0 = now () in
  (* untraced and traced passes alternate, each pair on the same inputs *)
  let rec loop i acc =
    let traced = i mod 2 = 1 in
    let run =
      if traced then
        let tr, p = Obs.Trace.collecting (fun () -> runner.run_pass (i / 2)) in
        (p, Some tr)
      else (runner.run_pass (i / 2), None)
    in
    let acc = (i / 2, run) :: acc in
    if traced && secs t0 (now ()) >= seconds then List.rev acc
    else loop (i + 1) acc
  in
  let indexed = loop 0 [] in
  let runs = List.map snd indexed in
  let passes = List.map fst runs in
  let drifts =
    check_repeats ~distinct:runner.distinct
      (List.map (fun (idx, (p, _)) -> (idx, p)) indexed)
  in
  let traced = List.filter_map (fun (p, t) -> Option.map (fun t -> (p, t)) t) runs in
  let untraced = List.filter (fun (_, t) -> t = None) runs in
  let n_traced = float_of_int (List.length traced) in
  let per_pass_wall l = Stats.mean (List.map (fun (p : pass) -> p.wall_s) l) in
  let traced_wall = per_pass_wall (List.map fst traced) in
  let untraced_wall = per_pass_wall (List.map fst untraced) in
  let overhead_ms = (traced_wall -. untraced_wall) *. 1000. in
  let attributions =
    List.map (fun (_, t) -> Layers.attribute (Obs.Trace.spans t)) traced
  in
  let layer_ms l =
    Stats.sum (List.map (fun a -> Layers.self_ms a l) attributions) /. n_traced
  in
  let per_traced f = Stats.sum (List.map f attributions) /. n_traced in
  let spans_ms = per_traced Layers.total_ms in
  let named_ms = per_traced Layers.named_ms in
  (* The pass wall is read outside every span, so it is a clock the
     spans do not share. What the named layers leave of it is the
     benchmark's own spans and the gaps between spans: both are tracing
     bookkeeping, so they must fit in the measured tracing overhead
     (plus 1% of the wall for the noise of a difference of two walls). *)
  let unattributed_ms = traced_wall *. 1000. -. named_ms in
  let adds_up =
    Float.abs unattributed_ms
    <= Float.max overhead_ms 0. +. (0.01 *. traced_wall *. 1000.)
  in
  let first = List.hd passes in
  let count k = Option.value ~default:0. (List.assoc_opt k first.counts) in
  let q name p =
    Option.value ~default:0. (Obs.Metrics.quantile Obs.Metrics.default name p)
  in
  let pred_err =
    match Obs.Metrics.prediction_error Obs.Metrics.default with
    | Some h -> (h.p50, h.p90)
    | None -> (0., 0.)
  in
  (* the rate ladder runs after the timed passes, on fresh traces *)
  let max_rate, ladder_note, ladder_mismatches =
    runner.max_rate
      (List.filter_map
         (fun (idx, (p, t)) -> if t = None && idx < runner.distinct then Some p else None)
         indexed)
  in
  let s = first.summary in
  let sv f = match s with Some s -> f s | None -> 0. in
  let qd_tail, _, _ = Stats.tail first.queue_delay_s in
  let ms = "ms" and wall = "wall, per pass" and c = "count" in
  let metrics =
    [ metric "workloads.datagen_ms" (Layers.self_ms setup_layers "workloads") ms
        "wall, per set-up";
      metric "profile.calibrate_ms" (Layers.self_ms setup_layers "profile") ms
        "wall, per set-up";
      metric "profile.probe_jobs"
        (float_of_int (Layers.spans_named setup_layers ~layer:"profile" "engine.run"))
        c "per set-up";
      metric "frontends.parse_ms" (layer_ms "frontends") ms wall;
      metric "frontends.ir_nodes" (count "frontends.ir_nodes") c "per pass";
      metric "optimizer.optimize_ms" (layer_ms "optimizer") ms wall;
      metric "optimizer.rewrites" (count "optimizer.rewrites") c "per pass";
      metric "optimizer.ir_nodes_out" (count "optimizer.ir_nodes_out") c "per pass";
      metric "estimator.estimate_ms" (layer_ms "estimator") ms wall;
      metric "estimator.size_rel_err_p50" (q "estimator.size_rel_error" 0.5) "ratio" "modeled";
      metric "estimator.size_rel_err_p90" (q "estimator.size_rel_error" 0.9) "ratio" "modeled";
      metric "partitioner.partition_ms" (layer_ms "partitioner") ms wall;
      metric "partitioner.sets_scored" (count "partitioner.sets_scored") c "per pass";
      metric "partitioner.jobs" (count "partitioner.jobs") c "per pass";
      metric "cost.pred_rel_err_p50" (fst pred_err) "ratio" "modeled";
      metric "cost.pred_rel_err_p90" (snd pred_err) "ratio" "modeled";
      metric "codegen.ms" (layer_ms "codegen") ms wall;
      metric "codegen.bytes" (count "codegen.bytes") "bytes" "per pass";
      metric "executor.self_ms" (layer_ms "executor") ms wall;
      metric "executor.jobs" (count "executor.jobs") c "per pass";
      metric "executor.retries" (count "executor.retries") c "per pass";
      metric "engines.run_self_ms" (layer_ms "engines") ms wall ]
    @ List.map
        (fun b -> metric ("engines.jobs." ^ b) (count ("engines.jobs." ^ b)) c "per pass")
        backends
    @ [ metric "relation.fused_ms" (layer_ms "relation") ms wall ]
    @ List.map
        (fun op ->
           metric ("relation.calls." ^ op) (count ("relation.calls." ^ op)) c "per pass")
        kernel_ops
    @ [ metric "relation.alloc_mwords" first.alloc_mwords "Mwords"
          "per pass, GC words allocated inside execute_plan / drive";
        metric "serve.self_ms" (layer_ms "serve") ms wall;
        metric "serve.queue_delay_p50_s" (Stats.median first.queue_delay_s) "s" "virtual";
        metric "serve.queue_delay_tail_s" qd_tail "s" "virtual";
        metric "serve.plan_hit_rate" (sv (fun s -> s.cache_hit_rate)) "ratio" "per pass";
        metric "serve.plan_invalidated"
          (sv (fun s -> float_of_int s.cache_stats.invalidations)) c "per pass";
        metric "serve.scan_saved_mb" (sv (fun s -> s.scan_saved_mb)) "MB" "modeled";
        metric "serve.subplan_hit_ratio"
          (sv (fun s ->
               let d = s.subplan_hits + s.subplan_paid in
               if d = 0 then 0. else float_of_int s.subplan_hits /. float_of_int d))
          "ratio" "per pass";
        metric "serve.subresult_hits" (sv (fun s -> float_of_int s.subresult.hits)) c "per pass";
        metric "serve.subresult_misses" (sv (fun s -> float_of_int s.subresult.misses)) c "per pass";
        metric "serve.subresult_evictions"
          (sv (fun s -> float_of_int s.subresult.evictions)) c "per pass";
        metric "serve.shed" (sv (fun s -> float_of_int s.shed)) c "per pass";
        metric "serve.expired" (sv (fun s -> float_of_int s.expired)) c "per pass";
        metric "serve.open_flights" (float_of_int first.open_flights) c "after each pass";
        metric "max_rate_at_slo" max_rate "arrivals/s" "virtual" ~note:ladder_note;
        metric "obs.trace_overhead_pct"
          (if untraced_wall > 0. then 100. *. (traced_wall -. untraced_wall) /. untraced_wall
           else 0.)
          "%" "wall, traced vs untraced pass" ]
  in
  (* the artefact: spans as a Chrome trace, and the self-time table *)
  write_file out (w.name ^ ".setup.trace.json") (Obs.Export.chrome_trace setup_trace);
  (match traced with
   | (_, t) :: _ -> write_file out (w.name ^ ".pass.trace.json") (Obs.Export.chrome_trace t)
   | [] -> ());
  let table =
    let b = Buffer.create 1024 in
    Printf.bprintf b "per-layer self time, %s seed %d, ms per traced pass (%d traced, %d untraced)\n"
      w.name seed (List.length traced) (List.length untraced);
    List.iter
      (fun l -> Printf.bprintf b "  %-12s %12.3f\n" l (layer_ms l))
      Layers.layers;
    Printf.bprintf b "  %-12s %12.3f  (all spans, bench included: %.3f)\n" "named sum"
      named_ms spans_ms;
    Printf.bprintf b "  %-12s %12.3f\n" "traced wall" (traced_wall *. 1000.);
    Printf.bprintf b "  %-12s %12.3f\n" "untraced" (untraced_wall *. 1000.);
    Printf.bprintf b "  %-12s %12.3f  (traced wall - named sum; tracing overhead %.3f ms; %s)\n"
      "unattributed" unattributed_ms overhead_ms
      (if adds_up then "adds up" else "DOES NOT ADD UP");
    Buffer.contents b
  in
  write_file out (w.name ^ ".layers.txt") table;
  print_string table;
  report_failures passes;
  List.iter (fun d -> Printf.printf "DRIFT: %s\n" d) drifts;
  List.iter (fun d -> Printf.printf "rate ladder failure: %s\n" d) ladder_mismatches;
  let attempted, failed = failed_share passes in
  let correct =
    drifts = [] && adds_up && ladder_mismatches = []
    && List.for_all (fun p -> p.open_flights = 0 && not p.mismatched) passes
  in
  print_result ~correct ~attempted ~failed metrics;
  correct

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".perfbench_out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the inputs, arrivals and draws");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its artefacts") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some w ->
    Printf.printf "perfbench %s seed=%d seconds=%g trace=%d: %s loop, %s; \
                   kernel pool jobs %d (configured %d)\n%!"
      w.name !seed !seconds !trace w.loop w.clients
      (Relation.Pool.effective_jobs ()) (Relation.Pool.configured_jobs ());
    let ok =
      if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
      else per_layer w ~seed:!seed ~seconds:!seconds ~out:!out
    in
    exit (if ok then 0 else 1)
