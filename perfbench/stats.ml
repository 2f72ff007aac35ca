(* Order statistics and fits over measured samples. *)

(* [percentile p xs] with linear interpolation between closest ranks
   (rank [p/100 * (n-1)]); [nan] on an empty list. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    a.(lo) +. (f *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* Least-squares slope of log y against log x over the points with
   positive coordinates: the exponent of a power law y ~ x^s.  Needs at
   least two distinct sizes; [None] otherwise. *)
let loglog_slope points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0. && y > 0. then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  let mx = mean (List.map fst pts) and my = mean (List.map snd pts) in
  let sxx = sum (List.map (fun (x, _) -> (x -. mx) ** 2.) pts) in
  let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) pts) in
  if n < 2. || sxx <= 0. then None else Some (sxy /. sxx)
