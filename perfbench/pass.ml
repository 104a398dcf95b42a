(* What a benchmark pass measures, and the helpers the workloads share. *)

let cluster () = Engines.Cluster.ec2 ~nodes:16

let now () = Obs.Clock.now_ns ()

let secs t0 t1 = Obs.Clock.elapsed_s ~since:t0 ~until:t1

let span = Obs.Trace.with_span

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ---- what one pass over a workload's request mix measured ---- *)

type pass = {
  requests : int;           (** submitted / compiled in the pass *)
  failures : string list;   (** error, shed, expired or mismatch, one each *)
  mismatched : bool;        (** an error or an output mismatch among them *)
  wall_s : float;           (** timed wall of the pass *)
  lat_s : (string * float) list;  (** per-request wall samples, labelled *)
  modeled_s : float list;   (** per-request modeled makespan *)
  virtual_s : float list;   (** per-request virtual latency *)
  goodput_wps : float;
  queue_delay_s : float list;  (** in arrival order *)
  signature : (string * float) list;
      (** per request: what must repeat exactly (modeled values, labels,
          counts), and the virtual latency, which carries planner wall
          seconds and must repeat within {!virtual_jitter_s} *)
  alloc_mwords : float;     (** GC allocation inside execute_plan/drive *)
  counts : (string * float) list;  (** workload-specific per-pass counts *)
  summary : Serve.Service.summary option;
  open_flights : int;
}

let virtual_jitter_s = 0.25

type runner = {
  run_pass : int -> pass;
  distinct : int;  (** pass [i] repeats the inputs of pass [i mod distinct] *)
  (* highest ladder rate meeting the SLO given the nominal-rate passes,
     each rung's verdict, and output mismatches met on the ladder *)
  max_rate : pass list -> float * string * string list;
}

(* ---- registry counts ---- *)

let backends = List.map Engines.Backend.name Engines.Backend.all

let kernel_ops = [ "select"; "project"; "join"; "group_by"; "map"; "fused" ]

let counter_snapshot () = Obs.Metrics.counters Obs.Metrics.default

let hist_total name =
  match Obs.Metrics.histogram Obs.Metrics.default name with
  | Some h -> h.mean *. float_of_int h.count
  | None -> 0.

(* counts the timed part of a pass produced, from the registry deltas
   around it (the output check runs kernels of its own) *)
let pass_counts before after sets_before sets_after =
  let get l k = Option.value ~default:0 (List.assoc_opt k l) in
  let delta k = float_of_int (get after k - get before k) in
  let sum_prefix prefix =
    List.fold_left
      (fun acc (k, v) ->
         if String.starts_with ~prefix k then acc +. float_of_int (v - get before k)
         else acc)
      0. after
  in
  [ ("optimizer.rewrites", sum_prefix "rewrite.");
    ("partitioner.sets_scored", Float.round (sets_after -. sets_before));
    ("executor.jobs",
     List.fold_left (fun a b -> a +. delta ("jobs." ^ b)) 0. backends);
    ("executor.retries", delta "recovery.retries") ]
  @ List.map (fun b -> ("engines.jobs." ^ b, delta ("jobs." ^ b))) backends
  @ List.map
      (fun op ->
         ("relation.calls." ^ op,
          delta ("kernel.columnar." ^ op) +. delta ("kernel.par." ^ op)))
      kernel_ops

let with_counts f =
  let before = counter_snapshot ()
  and sets_before = hist_total "partition.sets_scored" in
  let r = f () in
  (r, pass_counts before (counter_snapshot ()) sets_before
        (hist_total "partition.sets_scored"))

(* seeded permutation: each closed-loop pass draws the mix's order *)
let shuffle ~seed ~pass l =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let memo f =
  let tbl = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.replace tbl k v;
      v

let code_bytes code = List.fold_left (fun a (_, s) -> a + String.length s) 0 code

let ir_counts ~nodes ~nodes_out ~jobs ~bytes =
  [ ("frontends.ir_nodes", float_of_int nodes);
    ("optimizer.ir_nodes_out", float_of_int nodes_out);
    ("partitioner.jobs", float_of_int jobs);
    ("codegen.bytes", float_of_int bytes) ]

let no_rate_ladder _ = (0., "closed loop: no rate ladder", [])

let closed_goodput virt =
  let total = Stats.sum virt in
  if total > 0. then float_of_int (List.length virt) /. total else 0.
