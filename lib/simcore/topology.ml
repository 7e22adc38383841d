(* Chips sit on a [width]-wide grid: chip [c] is at
   [(c mod width, c / width)], and two chips are the Manhattan distance
   apart. The distances are tabulated once, row-major, so [hops] — on the
   remote-hit and DRAM paths of every simulated miss — is one load
   instead of four divisions. *)
type t = { cfg : Config.t; width : int; nchips : int; hop_tab : int array }

let create cfg =
  let rec width n = if n * n >= cfg.Config.chips then n else width (n + 1) in
  let width = width 1 in
  let nchips = cfg.Config.chips in
  let dist a b =
    abs ((a mod width) - (b mod width)) + abs ((a / width) - (b / width))
  in
  let hop_tab =
    Array.init (nchips * nchips) (fun i -> dist (i / nchips) (i mod nchips))
  in
  { cfg; width; nchips; hop_tab }

let[@inline] hops t a b = t.hop_tab.((a * t.nchips) + b)
let hop_table t = t.hop_tab

let max_hops t = Array.fold_left Int.max 0 t.hop_tab

let remote_cache_latency t ~from_chip ~to_chip =
  t.cfg.Config.remote_same_chip
  + (hops t from_chip to_chip * t.cfg.Config.remote_hop)

let dram_latency t ~from_chip ~home_chip =
  t.cfg.Config.dram_latency
  + (hops t from_chip home_chip * t.cfg.Config.dram_hop)

let home_chip t ~addr = addr / t.cfg.Config.page_bytes mod t.cfg.Config.chips

let pp ppf t =
  Format.fprintf ppf "%d chips on a %dx%d grid (max %d hops)"
    t.cfg.Config.chips t.width
    ((t.cfg.Config.chips + t.width - 1) / t.width)
    (max_hops t)
