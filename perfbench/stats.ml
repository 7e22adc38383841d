(* Order statistics over samples the benchmark collected itself. *)

let median (a : float array) =
  let b = Array.copy a in
  Array.sort Float.compare b;
  let n = Array.length b in
  if n = 0 then nan
  else if n mod 2 = 1 then b.(n / 2)
  else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

(* Nearest-rank percentile of an ascending int array's first [n] cells. *)
let percentile_sorted (a : int array) n p =
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))

(* A growable int buffer for samples. Past [cap] samples it keeps a
   uniform random subset of everything added (reservoir sampling), so a
   long run's memory stays bounded. *)
module Ibuf = struct
  type t = {
    mutable a : int array;
    mutable n : int;
    cap : int;
    mutable seen : int;
    rng : Random.State.t;
  }

  let create ?(cap = max_int) hint =
    { a = Array.make (max 16 (min cap hint)) 0; n = 0; cap; seen = 0; rng = Random.State.make [| 17 |] }

  let add t x =
    t.seen <- t.seen + 1;
    if t.n < t.cap then begin
      if t.n = Array.length t.a then begin
        let a' = Array.make (min t.cap (2 * t.n)) 0 in
        Array.blit t.a 0 a' 0 t.n;
        t.a <- a'
      end;
      t.a.(t.n) <- x;
      t.n <- t.n + 1
    end
    else
      let j = Random.State.int t.rng t.seen in
      if j < t.cap then t.a.(j) <- x

  (* Several percentiles from one sort of the samples. *)
  let percentiles t ps =
    let b = Array.sub t.a 0 t.n in
    Array.sort Int.compare b;
    List.map (percentile_sorted b t.n) ps
end

(* The same for float samples (per-round rates, per-pass times). *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 16 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let median t = median (to_array t)

  (* Nearest-rank quantile, [q] in (0, 1]. *)
  let quantile t q =
    let b = to_array t in
    Array.sort Float.compare b;
    if t.n = 0 then nan
    else b.(max 0 (min (t.n - 1) (int_of_float (Float.ceil (q *. float_of_int t.n)) - 1)))
end
