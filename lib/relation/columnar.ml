(* Vectorized kernels. Every path here must be byte-identical to the
   row kernel it replaces; anything that cannot be made so returns
   [None] and the caller runs the row path. See columnar.mli for the
   fallback catalogue and docs/columnar.md for the design. *)

let par_threshold = 512

let mark name = Obs.Metrics.incr Obs.Metrics.default ("kernel.columnar." ^ name)

let note_fallback reason =
  if Column.enabled () then
    Obs.Metrics.incr Obs.Metrics.default ("kernel.fallback." ^ reason)

(* every [None] returned while the gate is on goes through here, so a
   row-path fallback always shows up as [kernel.fallback.<reason>] *)
let fallback reason =
  note_fallback reason;
  None

(* ---- growable scratch buffers (amortized O(1) push) ---- *)

type ibuf = {
  mutable ia : int array;
  mutable ilen : int;
}

let ibuf () = { ia = Array.make 64 0; ilen = 0 }

let ipush b x =
  if b.ilen = Array.length b.ia then begin
    let bigger = Array.make (2 * b.ilen) 0 in
    Array.blit b.ia 0 bigger 0 b.ilen;
    b.ia <- bigger
  end;
  b.ia.(b.ilen) <- x;
  b.ilen <- b.ilen + 1

let icontents b = Array.sub b.ia 0 b.ilen

type fbuf = {
  mutable fa : float array;
  mutable flen : int;
}

let fbuf () = { fa = Array.make 64 0.; flen = 0 }

let fpush b x =
  if b.flen = Array.length b.fa then begin
    let bigger = Array.make (2 * b.flen) 0. in
    Array.blit b.fa 0 bigger 0 b.flen;
    b.fa <- bigger
  end;
  b.fa.(b.flen) <- x;
  b.flen <- b.flen + 1

let fcontents b = Array.sub b.fa 0 b.flen

(* ---- SELECT ---- *)

let mask_to_indices ~start mask =
  let n = Array.length mask in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then incr count
  done;
  let out = Array.make !count 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if mask.(i) then begin
      out.(!k) <- start + i;
      incr k
    end
  done;
  out

(* single-pass filter for the overwhelmingly common predicate shape
   [col ⊕ const] over an int column: no boolean mask, no intermediate
   vectors — one tight loop pushing surviving row indices. Semantics
   are [Int.compare], which primitive int comparison matches. *)
let fast_int_filter (a : int array) op k buf ~start ~len =
  let stop = start + len - 1 in
  (match (op : Expr.cmpop) with
   | Expr.Eq ->
     for i = start to stop do
       if a.(i) = k then ipush buf i
     done
   | Expr.Neq ->
     for i = start to stop do
       if a.(i) <> k then ipush buf i
     done
   | Expr.Lt ->
     for i = start to stop do
       if a.(i) < k then ipush buf i
     done
   | Expr.Le ->
     for i = start to stop do
       if a.(i) <= k then ipush buf i
     done
   | Expr.Gt ->
     for i = start to stop do
       if a.(i) > k then ipush buf i
     done
   | Expr.Ge ->
     for i = start to stop do
       if a.(i) >= k then ipush buf i
     done);
  icontents buf

let flip_cmp : Expr.cmpop -> Expr.cmpop = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

let try_fast_indices schema cols pred ~start ~len =
  let int_col c =
    match Schema.index_of schema c with
    | i -> (
      match cols.(i).Column.data with
      | Column.Ints a -> Some a
      | _ -> None)
    | exception Not_found -> None
  in
  match (pred : Expr.t) with
  | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) ->
    Option.map
      (fun a -> fast_int_filter a op k (ibuf ()) ~start ~len)
      (int_col c)
  | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) ->
    Option.map
      (fun a -> fast_int_filter a (flip_cmp op) k (ibuf ()) ~start ~len)
      (int_col c)
  | _ -> None

let select_range schema cols pred ~start ~len =
  match try_fast_indices schema cols pred ~start ~len with
  | Some idx -> idx
  | None ->
    let mask =
      Vector.to_mask ~length:len
        (Vector.eval schema cols ~sel:(Vector.Dense (start, len)) pred)
    in
    mask_to_indices ~start mask

let try_select t pred =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    if not (Vector.vectorizable schema pred) then fallback "not_vectorizable"
    else if Expr.infer schema pred <> Value.Tbool then
      (* row path raises per live row; let it *)
      fallback "not_vectorizable"
    else begin
      mark "select";
      let n = Table.row_count t in
      if n = 0 then Some t
      else begin
        let cols = Table.columns t in
        let jobs = Pool.effective_jobs () in
        let idx =
          if jobs > 1 && n >= par_threshold then
            Array.concat
              (Array.to_list
                 (Pool.run
                    (Array.map
                       (fun (start, len) () ->
                          select_range schema cols pred ~start ~len)
                       (Pool.chunks ~jobs n))))
          else select_range schema cols pred ~start:0 ~len:n
        in
        if Array.length idx = n then
          (* nothing filtered: share the input columns outright *)
          Some (Table.of_columns schema cols)
        else
          Some
            (Table.of_columns schema
               (Array.map (fun c -> Column.gather c idx) cols))
      end
    end
  end

(* ---- PROJECT ---- *)

let try_project t names =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    (* same Not_found as the row path on unknown columns *)
    let idxs = List.map (Schema.index_of schema) names in
    let out_schema = Schema.restrict schema names in
    mark "project";
    let cols = Table.columns t in
    (* columns are immutable, so the projection shares them: zero copy *)
    Some
      (Table.of_columns out_schema
         (Array.of_list (List.map (fun i -> cols.(i)) idxs)))
  end

(* ---- MAP ---- *)

let empty_column ty = Column.Builder.to_column (Column.Builder.create ty)

let try_map_column t ~target ~expr =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    if not (Vector.vectorizable schema expr) then fallback "not_vectorizable"
    else begin
      mark "map";
      let ty = Expr.infer schema expr in
      let out_schema = Schema.with_column schema { Schema.name = target; ty } in
      let replace = Schema.mem schema target in
      let n = Table.row_count t in
      let cols = Table.columns t in
      let new_col =
        if n = 0 then empty_column ty
        else begin
          let jobs = Pool.effective_jobs () in
          if jobs > 1 && n >= par_threshold then
            Column.concat
              (Array.to_list
                 (Pool.run
                    (Array.map
                       (fun (start, len) () ->
                          Vector.to_column ~length:len
                            (Vector.eval schema cols
                               ~sel:(Vector.Dense (start, len)) expr))
                       (Pool.chunks ~jobs n))))
          else
            Vector.to_column ~length:n
              (Vector.eval schema cols ~sel:(Vector.Dense (0, n)) expr)
        end
      in
      let out_cols =
        if replace then begin
          let out = Array.copy cols in
          out.(Schema.index_of schema target) <- new_col;
          out
        end
        else Array.append cols [| new_col |]
      in
      Some (Table.of_columns out_schema out_cols)
    end
  end

(* ---- JOIN ---- *)

(* int view of a join key column; [None] when the type cannot key
   a columnar hash table byte-identically (floats: the row engine's
   structural equality makes every NaN its own key) *)
let int_keys (col : Column.t) =
  match col.Column.data with
  | Column.Ints a -> Some a
  | Column.Bools a -> Some (Array.map (fun b -> if b then 1 else 0) a)
  | Column.Floats _ | Column.Dict _ -> None

let try_join left right ~left_key ~right_key =
  if not (Column.enabled ()) then None
  else begin
    let ls = Table.schema left and rs = Table.schema right in
    (* same Not_found as the row path on unknown keys *)
    let li = Schema.index_of ls left_key
    and ri = Schema.index_of rs right_key in
    let lty = Schema.column_type ls left_key
    and rty = Schema.column_type rs right_key in
    if lty = Value.Tfloat || rty = Value.Tfloat then fallback "float_key"
    else if lty <> rty then fallback "not_vectorizable"
    else begin
      mark "join";
      let lcols = Table.columns left and rcols = Table.columns right in
      let nl = Table.row_count left and nr = Table.row_count right in
      (* emitted (left row, right row) pairs, in the serial kernel's
         order: right rows in order, matches most-recent-first *)
      let lsel = ibuf () and rsel = ibuf () in
      (match lty with
       | Value.Tstring ->
         let decode (c : Column.t) =
           match c.Column.data with
           | Column.Dict { codes; dict } -> (codes, dict)
           | _ -> assert false
         in
         let lcodes, ldict = decode lcols.(li) in
         let rcodes, rdict = decode rcols.(ri) in
         let build : (string, int) Hashtbl.t =
           Hashtbl.create (max 16 nl)
         in
         for i = 0 to nl - 1 do
           Hashtbl.add build ldict.(lcodes.(i)) i
         done;
         for r = 0 to nr - 1 do
           List.iter
             (fun l ->
                ipush lsel l;
                ipush rsel r)
             (Hashtbl.find_all build rdict.(rcodes.(r)))
         done
       | _ ->
         let lk =
           match int_keys lcols.(li) with Some a -> a | None -> assert false
         in
         let rk =
           match int_keys rcols.(ri) with Some a -> a | None -> assert false
         in
         let build : (int, int) Hashtbl.t = Hashtbl.create (max 16 nl) in
         for i = 0 to nl - 1 do
           Hashtbl.add build lk.(i) i
         done;
         for r = 0 to nr - 1 do
           List.iter
             (fun l ->
                ipush lsel l;
                ipush rsel r)
             (Hashtbl.find_all build rk.(r))
         done);
      let lidx = icontents lsel and ridx = icontents rsel in
      let r_keep =
        Array.of_list
          (List.filteri (fun j _ -> j <> ri)
             (List.mapi (fun j _ -> j) (Schema.columns rs)))
      in
      let r_cols_keep = List.filteri (fun j _ -> j <> ri) (Schema.columns rs) in
      let out_schema =
        if r_cols_keep = [] then ls
        else Schema.concat ls (Schema.make r_cols_keep)
      in
      let out_left = Array.map (fun c -> Column.gather c lidx) lcols in
      let out_right =
        Array.map (fun j -> Column.gather rcols.(j) ridx) r_keep
      in
      Some (Table.of_columns out_schema (Array.append out_left out_right))
    end
  end

(* ---- GROUP BY ---- *)

(* typed per-aggregation accumulators, one slot per group *)
type acc =
  | A_count
  | A_sum_i of {
      src : int array;
      sums : ibuf;
    }
  | A_sum_f of {
      src : float array;
      sums : fbuf;
    }
  | A_avg_i of {
      src : int array;
      sums : fbuf;
    }
  | A_avg_f of {
      src : float array;
      sums : fbuf;
    }
  | A_minmax of {
      src : Column.t;
      best : ibuf;  (** row index of the current winner *)
      dir : int;    (** -1 = MIN, +1 = MAX *)
    }
  | A_first of {
      src : Column.t;
      first : ibuf;  (** row index of the group's first row *)
    }

let acc_of_agg schema cols (a : Aggregate.t) =
  let input c =
    (* same Not_found as the row path on unknown input columns *)
    let i = Schema.index_of schema c in
    cols.(i)
  in
  match a.Aggregate.fn with
  | Aggregate.Count -> Some A_count
  | Aggregate.Sum c -> (
    match (input c).Column.data with
    | Column.Ints src -> Some (A_sum_i { src; sums = ibuf () })
    | Column.Floats src -> Some (A_sum_f { src; sums = fbuf () })
    | _ -> None (* row path raises on schema construction; let it *))
  | Aggregate.Avg c -> (
    match (input c).Column.data with
    | Column.Ints src -> Some (A_avg_i { src; sums = fbuf () })
    | Column.Floats src -> Some (A_avg_f { src; sums = fbuf () })
    | _ -> None)
  | Aggregate.Min c ->
    Some (A_minmax { src = input c; best = ibuf (); dir = -1 })
  | Aggregate.Max c ->
    Some (A_minmax { src = input c; best = ibuf (); dir = 1 })
  | Aggregate.First c -> Some (A_first { src = input c; first = ibuf () })

let acc_new_group acc row =
  match acc with
  | A_count -> ()
  | A_sum_i a -> ipush a.sums a.src.(row)
  | A_sum_f a -> fpush a.sums a.src.(row)
  (* AVG starts from 0. and adds every value, like [Aggregate.S_avg]
     (so a group of one -0. averages to 0.); SUM seeds from the first
     value, keeping the sign of a lone -0. *)
  | A_avg_i a -> fpush a.sums (float_of_int a.src.(row))
  | A_avg_f a -> fpush a.sums (Aggregate.add_float 0. a.src.(row))
  | A_minmax a -> ipush a.best row
  | A_first a -> ipush a.first row

let acc_step acc g row =
  match acc with
  | A_count -> ()
  | A_sum_i a -> a.sums.ia.(g) <- a.sums.ia.(g) + a.src.(row)
  | A_sum_f { src; sums } | A_avg_f { src; sums } ->
    sums.fa.(g) <- Aggregate.add_float sums.fa.(g) src.(row)
  | A_avg_i a -> a.sums.fa.(g) <- a.sums.fa.(g) +. float_of_int a.src.(row)
  | A_minmax a ->
    (* strict comparison keeps the earliest winner on ties, exactly as
       [Aggregate.step] does *)
    let c = Column.compare_at a.src row a.best.ia.(g) in
    if (a.dir < 0 && c < 0) || (a.dir > 0 && c > 0) then a.best.ia.(g) <- row
  | A_first _ -> ()

let acc_finish acc ~counts =
  match acc with
  | A_count -> Column.make (Column.Ints (icontents counts))
  | A_sum_i a -> Column.make (Column.Ints (icontents a.sums))
  | A_sum_f a -> Column.make (Column.Floats (fcontents a.sums))
  | A_avg_i { sums; _ } ->
    Column.make
      (Column.Floats
         (Array.init sums.flen (fun g ->
              sums.fa.(g) /. float_of_int counts.ia.(g))))
  | A_avg_f { sums; _ } ->
    Column.make
      (Column.Floats
         (Array.init sums.flen (fun g ->
              sums.fa.(g) /. float_of_int counts.ia.(g))))
  | A_minmax a -> Column.gather a.src (icontents a.best)
  | A_first a -> Column.gather a.src (icontents a.first)

(* lookup tables up to this many slots are plain arrays; past it, a
   hash table keeps memory proportional to the rows *)
let dense_limit n = (2 * n) + 1024

(* [refine_groups gids ~groups codes ~card] splits a grouping by one
   more key: rows with the same (group id, code) pair share a fresh
   dense id, ids given out in first-appearance order. Starting from one all-rows
   group, refining by each key in turn numbers the full key tuples in
   first appearance, the order of the row kernel's tuple hash table.
   Returns the new ids and their count. *)
let refine_groups gids ~groups codes ~card =
  let n = Array.length codes in
  let out = Array.make n 0 in
  let next = ref 0 in
  if groups * card <= dense_limit n then begin
    let table = Array.make (groups * card) (-1) in
    for r = 0 to n - 1 do
      let k = (gids.(r) * card) + codes.(r) in
      let g = table.(k) in
      if g >= 0 then out.(r) <- g
      else begin
        table.(k) <- !next;
        out.(r) <- !next;
        incr next
      end
    done
  end
  else begin
    let table : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    for r = 0 to n - 1 do
      let k = (gids.(r) * card) + codes.(r) in
      match Hashtbl.find_opt table k with
      | Some g -> out.(r) <- g
      | None ->
        Hashtbl.add table k !next;
        out.(r) <- !next;
        incr next
    done
  end;
  (out, !next)

(* A group key column as codes in [0, card): dictionary codes for
   strings, 0/1 for bools, ints shifted by their minimum when the range
   is small and numbered in first appearance otherwise. Equal codes iff
   equal keys, which is all grouping needs. [None] for floats: the row
   engine's structural equality makes every NaN its own group. *)
let key_codes (col : Column.t) =
  match col.Column.data with
  | Column.Dict { codes; dict } -> Some (codes, Array.length dict)
  | Column.Bools a -> Some (Array.map (fun b -> if b then 1 else 0) a, 2)
  | Column.Floats _ -> None
  | Column.Ints a ->
    let n = Array.length a in
    let lo = ref 0 and hi = ref 0 in
    if n > 0 then begin
      lo := a.(0);
      hi := a.(0)
    end;
    for i = 1 to n - 1 do
      if a.(i) < !lo then lo := a.(i) else if a.(i) > !hi then hi := a.(i)
    done;
    let span = !hi - !lo in
    (* [span < 0]: the difference overflowed *)
    if span >= 0 && span < dense_limit n then begin
      let lo = !lo in
      Some (Array.map (fun x -> x - lo) a, span + 1)
    end
    else
      (* under a single prior group the pair key is the value itself,
         and an unbounded [card] selects the hash table *)
      Some (refine_groups (Array.make n 0) ~groups:1 a ~card:max_int)

let try_group_by t ~keys ~aggs =
  if not (Column.enabled ()) then None
  else begin
    let schema = Table.schema t in
    (* same Not_found as the row path on unknown keys *)
    let kis = List.map (Schema.index_of schema) keys in
    let cols = Table.columns t in
    let n = Table.row_count t in
    let codes = List.map (fun ki -> key_codes cols.(ki)) kis in
    if List.mem None codes then fallback "float_key"
    else begin
      let accs_opt = List.map (acc_of_agg schema cols) aggs in
      if List.mem None accs_opt then
        (* SUM/AVG over a non-numeric column: the row path raises *)
        fallback "not_vectorizable"
      else if keys = [] && n = 0 then
        (* a keyless AGG over no rows still yields one row of initial
           aggregate states; only the row path builds it *)
        fallback "empty_keyless"
      else begin
        mark "group_by";
        let gids, _ =
          List.fold_left
            (fun (gids, groups) c ->
               let codes, card = Option.get c in
               refine_groups gids ~groups codes ~card)
            (Array.make n 0, 1) codes
        in
        let accs = Array.of_list (List.map Option.get accs_opt) in
        let na = Array.length accs in
        let reps = ibuf () and counts = ibuf () in
        for row = 0 to n - 1 do
          let g = gids.(row) in
          (* ids are in first appearance: an unseen group is the next id *)
          if g < reps.ilen then begin
            counts.ia.(g) <- counts.ia.(g) + 1;
            for j = 0 to na - 1 do
              acc_step accs.(j) g row
            done
          end
          else begin
            ipush reps row;
            ipush counts 1;
            for j = 0 to na - 1 do
              acc_new_group accs.(j) row
            done
          end
        done;
        (* same output schema construction as the serial kernel *)
        let scols = Array.of_list (Schema.columns schema) in
        let agg_cols =
          List.map
            (fun (a : Aggregate.t) ->
               let input_ty =
                 Option.map
                   (fun c -> scols.(Schema.index_of schema c).Schema.ty)
                   (Aggregate.input_column a.Aggregate.fn)
               in
               { Schema.name = a.Aggregate.as_name;
                 ty = Aggregate.result_type a.Aggregate.fn ~input:input_ty })
            aggs
        in
        let out_schema =
          Schema.make (List.map (fun ki -> scols.(ki)) kis @ agg_cols)
        in
        let rep_idx = icontents reps in
        let out_keys =
          List.map (fun ki -> Column.gather cols.(ki) rep_idx) kis
        in
        let out_aggs =
          Array.to_list (Array.map (fun acc -> acc_finish acc ~counts) accs)
        in
        Some (Table.of_columns out_schema (Array.of_list (out_keys @ out_aggs)))
      end
    end
  end

(* ---- CROSS ---- *)

let try_cross left right =
  if not (Column.enabled ()) then None
  else begin
    (* same schema, and the same clash error, as the row path *)
    let out_schema = Schema.concat (Table.schema left) (Table.schema right) in
    mark "cross";
    let nl = Table.row_count left and nr = Table.row_count right in
    (* left-major: output row [l * nr + r] pairs left row [l] with right
       row [r], the row kernel's nested-loop order *)
    let lidx = Array.make (nl * nr) 0 and ridx = Array.make (nl * nr) 0 in
    for l = 0 to nl - 1 do
      let base = l * nr in
      for r = 0 to nr - 1 do
        lidx.(base + r) <- l;
        ridx.(base + r) <- r
      done
    done;
    let gather_all t idx =
      Array.map (fun c -> Column.gather c idx) (Table.columns t)
    in
    Some
      (Table.of_columns out_schema
         (Array.append (gather_all left lidx) (gather_all right ridx)))
  end

(* ---- fused SELECT/PROJECT/MAP chains ---- *)

(* chain state: columns of some materialized length plus a selection
   over them. [Filter] only refines the selection; [Keep] drops
   columns; [Map_col] densifies (gathers through the selection) so the
   fresh column can sit alongside the others. *)

let densify cols sel =
  match sel with
  | Vector.Dense (0, len)
    when Array.length cols = 0 || len = Column.length cols.(0) -> cols
  | Vector.Dense (start, len) ->
    let idx = Array.init len (fun i -> start + i) in
    Array.map (fun c -> Column.gather c idx) cols
  | Vector.Sparse idx -> Array.map (fun c -> Column.gather c idx) cols

let refine sel mask =
  let picked = mask_to_indices ~start:0 mask in
  match sel with
  | Vector.Dense (start, _) ->
    Vector.Sparse (Array.map (fun i -> start + i) picked)
  | Vector.Sparse idx -> Vector.Sparse (Array.map (fun i -> idx.(i)) picked)

let try_fused t steps =
  if not (Column.enabled ()) then None
  else begin
    let schema0 = Table.schema t in
    (* every expression in the chain must vectorize against the schema
       its step sees; otherwise the whole chain runs on rows *)
    let plan_ok =
      List.fold_left
        (fun acc step ->
           match acc with
           | None -> None
           | Some schema -> (
             match (step : Fused_step.t) with
             | Fused_step.Filter pred ->
               if
                 Vector.vectorizable schema pred
                 && Expr.infer schema pred = Value.Tbool
               then Some schema
               else None
             | Fused_step.Keep names -> Some (Schema.restrict schema names)
             | Fused_step.Map_col { target; expr } ->
               if Vector.vectorizable schema expr then
                 Some
                   (Schema.with_column schema
                      { Schema.name = target; ty = Expr.infer schema expr })
               else None))
        (Some schema0) steps
    in
    match plan_ok with
    | None -> fallback "not_vectorizable"
    | Some _ ->
      mark "fused";
      let n = Table.row_count t in
      let state =
        List.fold_left
          (fun (schema, cols, sel) step ->
             match (step : Fused_step.t) with
             | Fused_step.Filter pred ->
               let len = Vector.sel_length sel in
               if len = 0 then (schema, cols, sel)
               else begin
                 let mask =
                   Vector.to_mask ~length:len
                     (Vector.eval schema cols ~sel pred)
                 in
                 (schema, cols, refine sel mask)
               end
             | Fused_step.Keep names ->
               let idxs =
                 Array.of_list (List.map (Schema.index_of schema) names)
               in
               ( Schema.restrict schema names,
                 Array.map (fun i -> cols.(i)) idxs,
                 sel )
             | Fused_step.Map_col { target; expr } ->
               let ty = Expr.infer schema expr in
               let out_schema =
                 Schema.with_column schema { Schema.name = target; ty }
               in
               let len = Vector.sel_length sel in
               let dense = densify cols sel in
               let new_col =
                 if len = 0 then empty_column ty
                 else
                   Vector.to_column ~length:len
                     (Vector.eval schema dense
                        ~sel:(Vector.Dense (0, len)) expr)
               in
               let replace = Schema.mem schema target in
               let out_cols =
                 if replace then begin
                   let out = Array.copy dense in
                   out.(Schema.index_of schema target) <- new_col;
                   out
                 end
                 else Array.append dense [| new_col |]
               in
               (out_schema, out_cols, Vector.Dense (0, len)))
          (schema0, Table.columns t, Vector.Dense (0, n))
          steps
      in
      let schema, cols, sel = state in
      Some (Table.of_columns schema (densify cols sel))
  end
