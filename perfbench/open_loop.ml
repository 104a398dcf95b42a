(* The serve workload: an open loop of seeded Poisson arrivals on the
   serve layer's virtual clock, with seeded overwrites of shared inputs
   between [drive] segments. *)

open Pass

(* The serve mix, drawn uniformly: pagerank and components share their
   inputs (edges, vertices), and repeats of one workflow share every
   prefix. netflix stays out: one execution costs ~0.3 s of wall, which
   would leave too few passes in a run. *)
let serve_mix =
  List.map (fun n -> (n, 1.))
    [ "top-shopper"; "project"; "join"; "tpch"; "pagerank"; "components" ]

let tenants = [ ("gold", 3.); ("bronze", 1.) ]

let nominal_rate = 0.04         (* arrivals per virtual second *)

let slo_s = 300.                (* per-request deadline, virtual seconds *)

let submissions = 400           (* per trace *)

(* Virtual metrics pool this many seeded traces, so one trace's
   burstiness does not set them; later passes repeat trace [i mod
   traces] and must reproduce it. *)
let traces = 10

(* Rate ladder, multiples of the nominal rate; each probed rung runs
   this many fresh traces. *)
let ladder = [ 1.5; 2.; 2.5; 3.; 3.5; 4.; 5.; 6. ]

let ladder_traces = 3

(* submissions between two overwrites, one [drive] call each *)
let segment = 80

let shared_inputs = [ "edges"; "vertices"; "lineitem"; "purchases" ]

(* the table a seeded overwrite puts in place of [rel] *)
let regenerate ~seed rel =
  let open Workloads in
  match rel with
  | "edges" -> fst (Datagen.graph_tables ~seed Datagen.orkut ~edges:())
  | "vertices" -> snd (Datagen.graph_tables ~seed Datagen.orkut ~edges:())
  | "lineitem" -> fst (Datagen.tpch ~seed ~scale_factor:10 ())
  | _ -> Datagen.purchases ~seed ~users:10_000_000 ()

let rec chunks n l =
  if l = [] then []
  else
    let rec take k acc = function
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let serve seed =
  let zoo = Zoo.make seed in
  let ws = List.map (fun (n, _) -> Zoo.find zoo n) serve_mix in
  let base = span "bench.datagen" (fun () -> Zoo.load_hdfs ws) in
  (* one overwrite schedule per trace: before every segment but the
     first, a new version of one shared input, of a new modeled size so
     cached plans keyed on input sizes go stale too *)
  let overwrites =
    span "bench.datagen" (fun () ->
        let st = Random.State.make [| seed; 7 |] in
        Array.init (traces + ladder_traces) (fun t ->
            Array.init (submissions / segment) (fun k ->
                if k = 0 then None
                else
                  let rel =
                    List.nth shared_inputs
                      (Random.State.int st (List.length shared_inputs))
                  in
                  let sized =
                    regenerate ~seed:(Zoo.derive seed (100 + (t * 100) + k)) rel
                  in
                  let scale = 0.9 +. Random.State.float st 0.2 in
                  Some
                    ( rel,
                      { sized with
                        Workloads.Datagen.modeled_mb =
                          sized.Workloads.Datagen.modeled_mb *. scale } ))))
  in
  let mix =
    List.map
      (fun (name, weight) ->
         { Serve.Client.workflow = name; graph = (Zoo.find zoo name).parse ();
           weight })
      serve_mix
  in
  let m =
    span "bench.create" (fun () -> Musketeer.create ~cluster:(cluster ()) ())
  in
  let config =
    { Serve.Service.default_config with
      Serve.Service.concurrency = 4; cache_capacity = 128;
      subresult_cache_mb = 256.; weights = tenants;
      default_slo_s = Some slo_s }
  in
  let inputs_of =
    memo (fun name ->
        List.concat_map (fun l -> List.map fst (Lazy.force l))
          (Zoo.find zoo name).inputs)
  in
  (* Interp over the contents a submission saw: the base tables with
     the overwrites applied so far; keyed on the versions of the
     workflow's own inputs *)
  let reference =
    memo (fun (name, versions) ->
        let h = Engines.Hdfs.snapshot base in
        List.iter
          (fun (rel, k) ->
             match k with
             | None -> ()
             | Some k -> (
               match overwrites.(fst k).(snd k) with
               | Some (_, sized) -> Workloads.Datagen.put h rel sized
               | None -> ()))
          versions;
        Zoo.reference h
          (List.find (fun e -> e.Serve.Client.workflow = name) mix).graph)
  in
  let run_at ~rate ~trace ~count pass =
    let subs =
      Serve.Client.generate ~seed:(Zoo.derive seed (1000 + trace))
        ~rate_per_s:rate ~count ~tenants ~mix ()
    in
    let svc =
      Serve.Service.create ~config
        (Musketeer.with_history m (Musketeer.History.create ()))
        ~hdfs:(Engines.Hdfs.snapshot base)
    in
    (* rel -> (trace, segment) of its last overwrite *)
    let latest = Hashtbl.create 8 in
    let lat = ref [] and outcomes = ref [] and wall = ref 0. in
    let alloc = ref 0. in
    let (), reg =
      with_counts @@ fun () ->
      List.iteri
        (fun k subs ->
           let versions name =
             List.map (fun rel -> (rel, Hashtbl.find_opt latest rel))
               (inputs_of name)
           in
           let t0 = now () in
           (span ~attrs:[ ("segment", Obs.Trace.Int k); ("pass", Obs.Trace.Int pass);
                          ("requests", Obs.Trace.Int (List.length subs)) ]
              "bench.request"
            @@ fun () ->
            (match overwrites.(trace).(k) with
             | None -> ()
             | Some (rel, sized) ->
               span "bench.put_input" (fun () ->
                   Serve.Service.put_input svc rel
                     ~modeled_mb:sized.Workloads.Datagen.modeled_mb
                     sized.Workloads.Datagen.table);
               Hashtbl.replace latest rel (trace, k));
            let a0 = alloc_words () in
            let outs = span "bench.drive" (fun () -> Serve.Service.drive svc subs) in
            alloc := !alloc +. (alloc_words () -. a0);
            outcomes :=
              List.rev_append
                (List.map (fun o -> (o, versions o.Serve.Service.sub.workflow)) outs)
                !outcomes);
           let t1 = now () in
           wall := !wall +. secs t0 t1;
           lat :=
             (Printf.sprintf "segment %d" k,
              secs t0 t1 /. float_of_int (List.length subs))
             :: !lat)
        (chunks segment subs)
    in
    let outcomes = List.rev !outcomes in
    let failures = ref [] and mismatched = ref false in
    List.iter
      (fun ((o : Serve.Service.outcome), versions) ->
         let fail d = failures := (o.sub.workflow ^ ": " ^ d) :: !failures in
         match o.status, o.error with
         | Serve.Service.Shed r, _ -> fail ("shed (" ^ r ^ ")")
         | Expired, _ -> fail "SLO expired before admission"
         | Served, Some e -> mismatched := true; fail e
         | Served, None -> (
           match Zoo.check (reference (o.sub.workflow, versions)) o.outputs with
           | None -> ()
           | Some d -> mismatched := true; fail d))
      outcomes;
    let outs = List.map fst outcomes in
    let summary = Serve.Service.summarize svc outs in
    (* a dropped request missed its deadline: its latency counts as at
       least the SLO *)
    let virt =
      List.map
        (fun (o : Serve.Service.outcome) ->
           match o.status with
           | Served when o.error = None -> o.latency_s
           | _ -> Float.max o.latency_s slo_s)
        outs
    in
    let signature =
      List.map
        (fun (o : Serve.Service.outcome) ->
           ( Printf.sprintf "%s %h %s %d %d" o.sub.workflow o.makespan_s o.cache
               o.subplan_hits o.subplan_paid,
             o.latency_s ))
        outs
    in
    { requests = List.length outs; failures = !failures;
      mismatched = !mismatched; wall_s = !wall; lat_s = !lat;
      modeled_s =
        List.filter_map
          (fun (o : Serve.Service.outcome) ->
             if o.status = Served && o.makespan_s > 0. then Some o.makespan_s
             else None)
          outs;
      virtual_s = virt; goodput_wps = summary.goodput_wps;
      queue_delay_s =
        List.map snd
          (List.sort compare
             (List.map
                (fun (o : Serve.Service.outcome) ->
                   (o.sub.arrival_s, o.queue_delay_s))
                outs));
      signature; alloc_mwords = !alloc /. 1e6;
      (* plans live inside the service: only the submitted IR is visible *)
      counts =
        ir_counts ~nodes:(List.fold_left (fun a (o : Serve.Service.outcome) ->
            a + Ir.Dag.operator_count o.sub.graph) 0 outs)
          ~nodes_out:0 ~jobs:0 ~bytes:0
        @ reg;
      summary = Some summary;
      open_flights = Serve.Service.open_flights svc }
  in
  (* Load of a rung against its limits, 1 = at the limit: the latency
     tail pooled over its traces against the SLO, and each trace's queue
     growth (its last third of arrivals against its first) against a
     quarter SLO. A rung holds when nothing is dropped or failed and the
     load is at most 1. *)
  let load ps =
    let growth p =
      let n = List.length p.queue_delay_s / 3 in
      let a = Array.of_list p.queue_delay_s in
      let mean_of i = Stats.mean (Array.to_list (Array.sub a i n)) in
      (mean_of (Array.length a - n) -. mean_of 0) /. (slo_s /. 4.)
    in
    let tail, _, _ = Stats.tail (List.concat_map (fun p -> p.virtual_s) ps) in
    List.fold_left (fun acc p -> Float.max acc (growth p)) (tail /. slo_s) ps
  in
  let holds ps = List.for_all (fun p -> p.failures = []) ps && load ps <= 1. in
  (* The nominal passes vouch for rung 1. Above it, a bisection over the
     ladder (load grows with the rate, so a rung that holds vouches for
     every rung below it) finds the highest rung that holds; the rate is
     then interpolated towards the next rung up, to where the load
     reaches 1. *)
  let max_rate nominal =
    let mismatches = ref [] and notes = ref [] in
    let probe = memo @@ fun f ->
      let rate = nominal_rate *. f in
      let ps =
        List.init ladder_traces (fun j ->
            run_at ~rate ~trace:(traces + j) ~count:submissions (-1))
      in
      List.iter
        (fun p -> if p.mismatched then mismatches := p.failures @ !mismatches)
        ps;
      let u = load ps and ok = holds ps in
      notes :=
        Printf.sprintf "%.4g/s load %.3f %s" rate u (if ok then "holds" else "misses")
        :: !notes;
      (rate, u, ok)
    in
    let rungs = Array.of_list ladder in
    (* invariant: rung [lo] holds (-1 = nominal), rung [hi] misses or is
       past the top *)
    let rec search lo hi above =
      if hi - lo <= 1 then (lo, above)
      else
        let mid = (lo + hi) / 2 in
        let ((_, _, ok) as r) = probe rungs.(mid) in
        if ok then search mid hi above else search lo mid (Some r)
    in
    let best =
      if not (holds nominal) then 0.
      else
        let lo, above = search (-1) (Array.length rungs) None in
        let r1, u1 =
          if lo < 0 then (nominal_rate, load nominal)
          else
            let r, u, _ = probe rungs.(lo) in
            (r, u)
        in
        match above with
        | Some (r2, u2, _) when u2 > 1. -> r1 +. ((r2 -. r1) *. (1. -. u1) /. (u2 -. u1))
        | _ -> r1
    in
    (best, String.concat "; " (List.rev !notes), !mismatches)
  in
  { run_pass =
      (fun i ->
         run_at ~rate:nominal_rate ~trace:(i mod traces) ~count:submissions i);
    distinct = traces; max_rate }
