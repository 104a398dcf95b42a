(* The workflow zoo as the benchmark drives it: seeded inputs at the
   CLI's ([musketeer run -w]) input sizes, the graphs parsed through
   their frontends, and the output check against [Ir.Interp]. *)

open Workloads

type workflow = {
  name : string;
  inputs : (string * Datagen.sized) list Lazy.t list;
      (** loaders; two workflows may share one (pagerank, components) *)
  parse : unit -> Ir.Dag.t;  (** frontend parse of the source text *)
}

(* Datagen seed for one input family, derived from the workload seed so
   the program sees only the generated tables. *)
let derive seed k = (seed land 0xFFFFFF) * 101 + k

let make seed =
  let s = derive seed in
  let orkut =
    lazy
      (let e, v = Datagen.graph_tables ~seed:(s 4) Datagen.orkut ~edges:() in
       [ ("edges", e); ("vertices", v) ])
  in
  let netflix =
    lazy
      (let r, m = Datagen.netflix ~seed:(s 3) ~movies:8000 () in
       [ ("ratings", r); ("movies", m) ])
  in
  let w name inputs parse = { name; inputs; parse } in
  [ w "tpch"
      [ lazy
          (let l, p = Datagen.tpch ~seed:(s 1) ~scale_factor:10 () in
           [ ("lineitem", l); ("part", p) ]) ]
      Workflows.tpch_q17;
    w "top-shopper"
      [ lazy [ ("purchases", Datagen.purchases ~seed:(s 2) ~users:10_000_000 ()) ] ]
      Workflows.top_shopper;
    w "netflix" [ netflix ] Workflows.netflix;
    w "pagerank" [ orkut ] (fun () -> Workflows.pagerank_gas ());
    w "components" [ orkut ]
      (fun () -> Workflows.connected_components ~iterations:8 ());
    w "cross-community"
      [ lazy
          (let a, b = Datagen.community_pair ~seed:(s 5) () in
           [ ("edges_a", a); ("edges_b", b) ]) ]
      (fun () -> Workflows.cross_community_pagerank ());
    w "sssp"
      [ lazy
          (let e, x = Datagen.sssp_tables ~seed:(s 6) Datagen.twitter () in
           [ ("sssp_edges", e); ("sssp_seeds", x) ]) ]
      (fun () -> Workflows.sssp ~max_rounds:8 ());
    w "kmeans"
      [ lazy
          (let p, c =
             Datagen.kmeans_points ~seed:(s 7) ~points:100_000_000 ~k:100 ()
           in
           [ ("points", p); ("centroids", c) ]) ]
      (fun () -> Workflows.kmeans ());
    w "join"
      [ lazy
          (let l, r = Datagen.asymmetric_join_tables ~seed:(s 8) () in
           [ ("left", l); ("right", r) ]) ]
      Workflows.simple_join;
    w "project"
      [ lazy
          [ ("lines", Datagen.two_column_ascii ~seed:(s 9) ~modeled_mb:2048. ()) ] ]
      Workflows.project_only;
    (* the 18-operator DAG: the partitioner's dynamic-programming branch *)
    w "netflix_extended" [ netflix ] Workflows.netflix_extended ]

let find zoo name = List.find (fun w -> w.name = name) zoo

(* Forces the loaders (data generation) and loads one HDFS holding the
   inputs of every given workflow. *)
let load_hdfs ws =
  let hdfs = Engines.Hdfs.create () in
  List.iter
    (fun w ->
       List.iter
         (fun l ->
            List.iter (fun (rel, sized) -> Datagen.put hdfs rel sized)
              (Lazy.force l))
         w.inputs)
    ws;
  hdfs

(* ---- output check ---- *)

(* Sorted-row canonical form, as the differential tests compare: order-
   insensitive, byte-exact on schema and values. *)
let canonical table =
  let schema = Relation.Table.schema table in
  let names = List.map (fun c -> c.Relation.Schema.name)
      (Relation.Schema.columns schema) in
  Relation.Schema.to_string schema ^ "\n"
  ^ Relation.Table.to_csv (Relation.Table.sort_by table names)

type reference = (string * string) list  (** output name, canonical *)

(* Ground truth: [Ir.Interp] on the unoptimized graph over the given
   HDFS contents. *)
let reference hdfs graph : reference =
  let store =
    Ir.Interp.store_of_list
      (List.map (fun r -> (r, Engines.Hdfs.table hdfs r))
         (Engines.Hdfs.list hdfs))
  in
  List.map (fun (n, t) -> (n, canonical t)) (Ir.Interp.outputs ~store graph)

let sort_outputs l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* [None] when the outputs match; otherwise what differs. *)
let check (expected : reference) outputs =
  let got = sort_outputs (List.map (fun (n, t) -> (n, canonical t)) outputs) in
  let expected = sort_outputs expected in
  if List.map fst got <> List.map fst expected then
    Some
      (Printf.sprintf "output relations [%s], expected [%s]"
         (String.concat "," (List.map fst got))
         (String.concat "," (List.map fst expected)))
  else
    List.fold_left2
      (fun acc (n, a) (_, b) ->
         match acc with
         | Some _ -> acc
         | None -> if a = b then None else Some (n ^ " differs from Interp"))
      None got expected
