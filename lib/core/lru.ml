(* One bounded LRU for the serving layer, polymorphic in the value and
   in the stamp a probe revalidates. Recency is a tick bumped on every
   hit and insert; only the relative order of ticks matters. *)

type ('v, 's) entry = {
  stamp : 's;
  value : 'v;
  size : float;
  mutable last : int;  (* tick of the last touch *)
}

type 'v lookup =
  | Hit of 'v
  | Miss
  | Invalidated

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  entries : int;
  size : float;
}

type ('v, 's) t = {
  metric : string;
  capacity : float;
  size_of : 'v -> float;
  tbl : (string, ('v, 's) entry) Hashtbl.t;
  mutable tick : int;
  mutable used : float;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create ~metric ~capacity ~size =
  {
    metric;
    capacity;
    size_of = size;
    tbl = Hashtbl.create 64;
    tick = 0;
    used = 0.;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
  }

let count t name = Obs.Metrics.incr Obs.Metrics.default (t.metric ^ "." ^ name)

let remove t key (e : (_, _) entry) =
  Hashtbl.remove t.tbl key;
  t.used <- Float.max 0. (t.used -. e.size)

let invalidate t key e =
  remove t key e;
  t.invalidations <- t.invalidations + 1;
  count t "invalidations"

let find t key ~valid =
  match Hashtbl.find_opt t.tbl key with
  | Some e when valid e.stamp ->
    t.tick <- t.tick + 1;
    e.last <- t.tick;
    t.hits <- t.hits + 1;
    count t "hits";
    Hit e.value
  | Some e ->
    invalidate t key e;
    Invalidated
  | None ->
    t.misses <- t.misses + 1;
    count t "misses";
    Miss

let victim t =
  Hashtbl.fold
    (fun k e acc ->
       match acc with
       | Some (_, best) when best.last <= e.last -> acc
       | _ -> Some (k, e))
    t.tbl None

let add t key ~stamp value =
  let size = t.size_of value in
  if t.capacity > 0. && size <= t.capacity then begin
    Option.iter (remove t key) (Hashtbl.find_opt t.tbl key);
    while t.used +. size > t.capacity do
      match victim t with
      | None -> t.used <- 0.  (* nothing left; float dust *)
      | Some (k, e) ->
        remove t k e;
        t.evictions <- t.evictions + 1;
        count t "evictions"
    done;
    t.tick <- t.tick + 1;
    Hashtbl.replace t.tbl key { stamp; value; size; last = t.tick };
    t.used <- t.used +. size
  end

let sweep t ~valid =
  Hashtbl.fold
    (fun k e acc -> if valid e.stamp then acc else (k, e) :: acc)
    t.tbl []
  |> List.iter (fun (k, e) -> invalidate t k e)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    evictions = t.evictions;
    entries = Hashtbl.length t.tbl;
    size = t.used;
  }

let hit_rate t =
  let total = t.hits + t.misses + t.invalidations in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let label = function
  | Hit _ -> "hit"
  | Miss -> "miss"
  | Invalidated -> "invalidated"
