(* The serving layer's one flight table: one epoch registry, one flight
   set, one entry table. A scan entry shares the *accounting* of an
   INPUT read (HDFS stays the source of truth, every job still fetches
   from it); a subplan entry carries a whole materialized common prefix.
   Both kinds record the epochs of what they read, expire with the
   flight that paid for them, and stop matching once an input moves. *)

type key = Scan of string | Subplan of string

type entry = {
  reads : (string * int) list;  (* relations read, at their epochs when paid *)
  payer : int;  (* flight that paid; -1 when paid outside a flight *)
  mb : float;
  table : Relation.Table.t option;  (* the materialization; None for scans *)
}

type t = {
  entries : (key, entry) Hashtbl.t;
  epochs : (string, int) Hashtbl.t;
  paid : (key, int) Hashtbl.t;  (* scan fetches / materializations paid *)
  flights : (int, unit) Hashtbl.t;
  mutable next_flight : int;
  mutable current_flight : int;
  mutable saved_mb : float;
  mutable attached_mb : float;
}

let create () =
  {
    entries = Hashtbl.create 16;
    epochs = Hashtbl.create 16;
    paid = Hashtbl.create 16;
    flights = Hashtbl.create 8;
    next_flight = 0;
    current_flight = -1;
    saved_mb = 0.;
    attached_mb = 0.;
  }

let epoch t relation =
  Option.value (Hashtbl.find_opt t.epochs relation) ~default:0

(* drop an entry whose reads went stale: subplan drops always count,
   scan drops only when a probe finds them (a write drops them
   silently) *)
let drop_stale t key ~probed =
  Hashtbl.remove t.entries key;
  match key with
  | Subplan _ -> Obs.Metrics.incr Obs.Metrics.default "subplan.invalidated"
  | Scan _ ->
    if probed then
      Obs.Metrics.incr Obs.Metrics.default "scan.cross_invalidated"

(* drop every entry that read [relation]: its bytes (or its paid read)
   belong to an epoch that no longer exists *)
let drop_readers t relation =
  Hashtbl.fold
    (fun key e acc -> if List.mem_assoc relation e.reads then key :: acc else acc)
    t.entries []
  |> List.iter (drop_stale t ~probed:false)

(* Called for every relation an engine materializes while the table is
   in scope, and by the service when a client overwrites an input. *)
let note_write t relation =
  Hashtbl.replace t.epochs relation (epoch t relation + 1);
  drop_readers t relation

(* Restart replay: raise a relation's epoch to [e], never lower it —
   replay from a ledger must not resurrect entries newer state already
   invalidated. *)
let set_epoch t relation e =
  if e > epoch t relation then begin
    Hashtbl.replace t.epochs relation e;
    drop_readers t relation
  end

let begin_flight t =
  let id = t.next_flight in
  t.next_flight <- id + 1;
  Hashtbl.replace t.flights id ();
  id

(* payer-expiry: entries the finished flight paid for leave the
   co-admission window. Later submissions pay again; reuse across time
   is the serve layer's bounded sub-result cache, so this table must
   not grow into an unbounded one. *)
let end_flight t id =
  Hashtbl.remove t.flights id;
  Hashtbl.fold
    (fun key e acc -> if e.payer = id then key :: acc else acc)
    t.entries []
  |> List.iter (Hashtbl.remove t.entries)

let with_flight t id f =
  let prev = t.current_flight in
  t.current_flight <- id;
  Fun.protect ~finally:(fun () -> t.current_flight <- prev) f

let open_flights t = Hashtbl.length t.flights

(* the entry under [key] if every relation it read is still at the
   epoch it read; a stale entry is dropped on probe *)
let probe t key =
  match Hashtbl.find_opt t.entries key with
  | Some e when List.for_all (fun (rel, ep) -> epoch t rel = ep) e.reads ->
    Some e
  | Some _ ->
    drop_stale t key ~probed:true;
    None
  | None -> None

let pay t key ~reads ~mb table =
  Hashtbl.replace t.entries key { reads; payer = t.current_flight; mb; table };
  Hashtbl.replace t.paid key
    (1 + Option.value (Hashtbl.find_opt t.paid key) ~default:0)

(* A re-claim by the *paying flight itself* (several jobs of one
   submission scanning the same INPUT, or a plan-cache hit replaying a
   cached plan's scans) still rides free but is counted as
   [scan.intra_flight], not [scan.cross_workflow]: the cross counters
   and saved-MB gauge must only measure sharing *between* co-admitted
   workflows, so repeat traffic with no overlap pins them at zero. *)
let claim_scan t ~relation ~mb =
  match probe t (Scan relation) with
  | Some e when e.payer = t.current_flight && t.current_flight >= 0 ->
    Obs.Metrics.incr Obs.Metrics.default "scan.intra_flight";
    true
  | Some _ ->
    t.saved_mb <- t.saved_mb +. mb;
    Obs.Metrics.incr Obs.Metrics.default "scan.cross_workflow";
    Obs.Metrics.add_gauge Obs.Metrics.default "scan.cross_mb_saved" mb;
    true
  | None ->
    pay t (Scan relation) ~reads:[ (relation, epoch t relation) ] ~mb None;
    false

let paid_reads t relation =
  Option.value (Hashtbl.find_opt t.paid (Scan relation)) ~default:0

let paid_all t =
  Hashtbl.fold
    (fun key n acc -> match key with Scan rel -> (rel, n) :: acc | Subplan _ -> acc)
    t.paid []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let saved_mb t = t.saved_mb

let claim_subplan t ~key =
  match probe t (Subplan key) with
  | Some { table = Some table; mb; _ } ->
    t.attached_mb <- t.attached_mb +. mb;
    Obs.Metrics.incr Obs.Metrics.default "subplan.cross_workflow";
    Obs.Metrics.add_gauge Obs.Metrics.default "subplan.attached_mb" mb;
    Some (table, mb)
  | Some { table = None; _ } | None -> None

let publish t ~key ~inputs ~mb table =
  let reads = List.map (fun rel -> (rel, epoch t rel)) inputs in
  pay t (Subplan key) ~reads ~mb (Some table);
  Obs.Metrics.incr Obs.Metrics.default "subplan.paid";
  reads

let paid_count t ~key =
  Option.value (Hashtbl.find_opt t.paid (Subplan key)) ~default:0

let attached_mb t = t.attached_mb

(* Dynamic scope: main-domain only, like the pool itself. *)
let installed : t option ref = ref None

let active () = !installed

let with_scope share f =
  let prev = !installed in
  installed := Some share;
  Fun.protect ~finally:(fun () -> installed := prev) f
