(* Order statistics for the reported metrics. *)

(* nearest rank, as the serve summary computes it *)
let median l = Serve.Service.percentile 0.5 l

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th of n sorted samples, i.e. the 11th largest. Below 21
   samples that percentile is no higher than the median, and the median
   stands in. Returns (value, percentile, n). *)
let tail l =
  let n = List.length l in
  if n <= 20 then (median l, 50., n)
  else
    let a = Array.of_list (List.sort Float.compare l) in
    (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

let geomean l =
  match l with
  | [] -> 0.
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. l
       /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0. l

let mean l = match l with [] -> 0. | _ -> sum l /. float_of_int (List.length l)
