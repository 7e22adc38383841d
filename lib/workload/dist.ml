type t = { n_ : int; cdf : float array }

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  if s < 0.0 then invalid_arg "Dist.zipf: s must be non-negative";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n_ = n; cdf }

let sample t rng =
  let cdf = t.cdf in
  let u = Rng.float rng in
  (* first index with cdf.(i) >= u *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t i =
  if i < 0 || i >= t.n_ then 0.0
  else if i = 0 then t.cdf.(0)
  else t.cdf.(i) -. t.cdf.(i - 1)
