type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let of_array a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let sorted = Array.copy a in
    Array.sort compare sorted;
    let sum = Array.fold_left ( +. ) 0.0 a in
    let mean = sum /. float_of_int n in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a
      /. float_of_int n
    in
    Some
      {
        n;
        mean;
        stddev = sqrt var;
        min = sorted.(0);
        max = sorted.(n - 1);
        p50 = percentile sorted 0.5;
        p90 = percentile sorted 0.9;
        p99 = percentile sorted 0.99;
        p999 = percentile sorted 0.999;
      }
  end

let of_list l = of_array (Array.of_list l)
