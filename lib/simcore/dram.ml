type controller = { mutable free_at : int; mutable served : int }

type t = {
  cfg : Config.t;
  topo : Topology.t;
  controllers : controller array;
}

let create cfg topo =
  {
    cfg;
    topo;
    controllers =
      Array.init cfg.Config.chips (fun _ -> { free_at = 0; served = 0 });
  }

let fetch t ~now ~from_chip ~home_chip ~lines =
  if lines <= 0 then 0
  else begin
    let c = t.controllers.(home_chip) in
    let start = Int.max now c.free_at in
    let service = lines * t.cfg.Config.dram_service in
    c.free_at <- start + service;
    c.served <- c.served + lines;
    let latency = Topology.dram_latency t.topo ~from_chip ~home_chip in
    start - now + latency + service
  end

let controller_free_at t ~chip = t.controllers.(chip).free_at
let lines_served t ~chip = t.controllers.(chip).served

let total_lines_served t =
  Array.fold_left (fun acc c -> acc + c.served) 0 t.controllers

let utilization t ~now =
  if now <= 0 then 0.0
  else begin
    let busy =
      Array.fold_left
        (fun acc c ->
          acc +. float_of_int (c.served * t.cfg.Config.dram_service))
        0.0 t.controllers
    in
    busy /. (float_of_int now *. float_of_int (Array.length t.controllers))
  end

let reset t =
  Array.iter
    (fun c ->
      c.free_at <- 0;
      c.served <- 0)
    t.controllers
