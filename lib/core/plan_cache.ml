(* The plan cache's validity stamp. The cache itself is an {!Lru}
   keyed on the submission graph's structural hash. *)

(* Everything [Musketeer.plan] reads besides the graph itself: the
   breaker-filtered candidate engines, the installed calibration
   factors (they scale the cost model), the fusion gate (it changes
   plan-time job volumes), the planning flags, the per-workflow history
   key, and the modeled sizes of the graph's INPUT relations (the
   estimator seeds from them — a grown input must re-plan). *)
let fingerprint ~backends ~merging ~optimize ~workflow ~hdfs g =
  let buf = Buffer.create 128 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '|'
  in
  List.iter add
    (List.sort String.compare (List.map Engines.Backend.name backends));
  add "cal";
  List.iter
    (fun (name, f) -> add (Printf.sprintf "%s=%.6f" name f))
    (Calibrate.factors ());
  add (Printf.sprintf "fusion=%b" (Ir.Fusion.enabled ()));
  add (Printf.sprintf "merging=%b;optimize=%b" merging optimize);
  add ("workflow=" ^ workflow);
  add "inputs";
  List.iter
    (fun r ->
       let mb =
         if Engines.Hdfs.mem hdfs r then Engines.Hdfs.modeled_mb hdfs r
         else -1.
       in
       add (Printf.sprintf "%s=%.4f" r mb))
    (List.sort String.compare (Ir.Dag.input_relations g));
  Buffer.contents buf
