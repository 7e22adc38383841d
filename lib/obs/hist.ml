(* 63 buckets cover every non-negative OCaml int: bucket 0 holds the value
   0 and bucket k (k >= 1) holds [2^(k-1), 2^k). *)
let buckets = 63

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make buckets 0; total = 0; sum = 0; min_v = max_int; max_v = 0 }

(* Import raw accumulator state (e.g. O2_runtime.Telemetry's per-sink
   latency accs, which share this bucket layout but cannot depend on
   lib/obs). The counts array is copied; mismatched lengths are padded /
   truncated rather than rejected so layouts can evolve independently. *)
let of_raw ~counts ~total ~sum ~min_v ~max_v =
  let c = Array.make buckets 0 in
  Array.blit counts 0 c 0 (min buckets (Array.length counts));
  { counts = c; total; sum; min_v; max_v }

let bucket_of v =
  (* number of significant bits: 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3 ... *)
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  bits 0 v

let bucket_lo b = if b = 0 then 0 else 1 lsl (b - 1)
let bucket_hi b = if b = 0 then 0 else (1 lsl b) - 1

let add t v =
  let v = max v 0 in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v

let merge_into ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.total <- into.total + t.total;
  into.sum <- into.sum + t.sum;
  if t.total > 0 then begin
    if t.min_v < into.min_v then into.min_v <- t.min_v;
    if t.max_v > into.max_v then into.max_v <- t.max_v
  end

(* Nearest-rank plus linear interpolation across the winning bucket's
   value range: deterministic, and exact at q=0 / q=1 because the range is
   clamped to the observed min/max. *)
let percentile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.percentile: q out of range";
  if t.total = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    (* the extreme ranks are known exactly — min/max ride along *)
    if rank <= 1 then float_of_int t.min_v
    else if rank >= t.total then float_of_int t.max_v
    else
    let rec find b seen =
      if b >= buckets then float_of_int t.max_v
      else begin
        let c = t.counts.(b) in
        if seen + c >= rank then begin
          let lo = max (bucket_lo b) t.min_v and hi = min (bucket_hi b) t.max_v in
          if c = 1 || hi <= lo then float_of_int hi
          else
            (* position of the rank within this bucket, in [0,1] *)
            let frac = float_of_int (rank - seen - 1) /. float_of_int (c - 1) in
            float_of_int lo +. (frac *. float_of_int (hi - lo))
        end
        else find (b + 1) (seen + c)
      end
    in
    find 0 0
  end

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99
let p999 t = percentile t 0.999
