(* Per-layer self time from a traced run. Spans come from two owners:
   the benchmark's own [bench.*] spans around each public call, and the
   spans the library already emits. Each span is charged to the layer
   its name names; an unnamed kind (e.g. [ir.build]) inherits its
   parent's layer, and everything under [bench.create] is calibration
   ([profile]). A span's self time is its duration minus its children's. *)

let layers =
  [ "workloads"; "profile"; "frontends"; "optimizer"; "estimator";
    "partitioner"; "codegen"; "executor"; "engines"; "relation"; "serve";
    "bench" ]

let layer_of_name name =
  match name with
  | "bench.datagen" -> Some "workloads"
  | "bench.create" -> Some "profile"
  | "bench.parse" | "frontend.parse" -> Some "frontends"
  | "bench.optimize_ir" | "optimize" | "optimize.pass" | "ir.typecheck" ->
    Some "optimizer"
  (* [Musketeer.plan] builds the estimator inside its own span, which has
     no estimator child: its self time is the estimate *)
  | "bench.estimator" | "plan" -> Some "estimator"
  | "bench.partition" | "partition" -> Some "partitioner"
  | "bench.show_code" | "codegen" -> Some "codegen"
  | "bench.execute_plan" | "execute" | "job.attempt" | "while.iter" ->
    Some "executor"
  | "bench.snapshot" | "engine.run" -> Some "engines"
  | "kernel.fused" | "kernel.par" -> Some "relation"
  | "bench.drive" | "bench.put_input" | "serve.submit" -> Some "serve"
  | "bench.request" | "bench.plan" -> Some "bench"
  | _ ->
    if String.starts_with ~prefix:"job:" name then Some "executor" else None

type t = {
  self_ns : (string, int64) Hashtbl.t;  (** layer -> summed self time *)
  count : (string * string, int) Hashtbl.t;  (** (layer, span name) -> spans *)
}

let attribute (spans : Obs.Trace.span list) =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.id s) spans;
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Trace.span) ->
       Option.iter
         (fun p ->
            let acc = Option.value ~default:0L (Hashtbl.find_opt child_ns p) in
            Hashtbl.replace child_ns p (Int64.add acc s.dur_ns))
         s.parent)
    spans;
  let memo = Hashtbl.create 1024 in
  let rec layer (s : Obs.Trace.span) =
    match Hashtbl.find_opt memo s.id with
    | Some l -> l
    | None ->
      let parent = Option.bind s.parent (Hashtbl.find_opt by_id) in
      let inherited = Option.map layer parent in
      let l =
        if inherited = Some "profile" then "profile"
        else
          match layer_of_name s.name, inherited with
          | Some l, _ -> l
          | None, Some l -> l
          | None, None -> "bench"
      in
      Hashtbl.replace memo s.id l;
      l
  in
  let self_ns = Hashtbl.create 16 and count = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Trace.span) ->
       let own =
         Int64.sub s.dur_ns
           (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id))
       in
       let l = layer s in
       let acc = Option.value ~default:0L (Hashtbl.find_opt self_ns l) in
       Hashtbl.replace self_ns l (Int64.add acc own);
       Hashtbl.replace count (l, s.name)
         (1 + Option.value ~default:0 (Hashtbl.find_opt count (l, s.name))))
    spans;
  { self_ns; count }

let self_ms t layer =
  Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt t.self_ns layer))
  /. 1e6

let spans_named t ~layer name =
  Option.value ~default:0 (Hashtbl.find_opt t.count (layer, name))

let total_ms t = List.fold_left (fun acc l -> acc +. self_ms t l) 0. layers

(* the repo's layers, without the [bench] catch-all: the benchmark's own
   spans' self time and spans no layer claims *)
let named_ms t = total_ms t -. self_ms t "bench"
