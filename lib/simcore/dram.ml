type controller = { mutable free_at : int }

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
      Array.init cfg.Config.chips (fun _ -> { free_at = 0 });
  }

let fetch t ~now ~from_chip ~home_chip ~lines =
  if lines <= 0 then 0
  else begin
    let c = t.controllers.(home_chip) in
    let start = Int.max now c.free_at in
    let service = lines * t.cfg.Config.dram_service in
    c.free_at <- start + service;
    let latency = Topology.dram_latency t.topo ~from_chip ~home_chip in
    start - now + latency + service
  end

let controller_free_at t ~chip = t.controllers.(chip).free_at
