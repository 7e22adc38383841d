type t = {
  mutable loads : int;
  mutable stores : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable remote_hits : int;
  mutable dram_loads : int;
  mutable invalidations_sent : int;
  mutable busy_cycles : int;
  mutable spin_cycles : int;
  mutable idle_cycles : int;
  mutable migrations_in : int;
  mutable migrations_out : int;
  mutable ops_completed : int;
}

let create () =
  {
    loads = 0;
    stores = 0;
    l1_hits = 0;
    l2_hits = 0;
    l3_hits = 0;
    remote_hits = 0;
    dram_loads = 0;
    invalidations_sent = 0;
    busy_cycles = 0;
    spin_cycles = 0;
    idle_cycles = 0;
    migrations_in = 0;
    migrations_out = 0;
    ops_completed = 0;
  }

let create_array n = Array.init n (fun _ -> create ())

let copy t = { t with loads = t.loads }

let diff t ~since =
  {
    loads = t.loads - since.loads;
    stores = t.stores - since.stores;
    l1_hits = t.l1_hits - since.l1_hits;
    l2_hits = t.l2_hits - since.l2_hits;
    l3_hits = t.l3_hits - since.l3_hits;
    remote_hits = t.remote_hits - since.remote_hits;
    dram_loads = t.dram_loads - since.dram_loads;
    invalidations_sent = t.invalidations_sent - since.invalidations_sent;
    busy_cycles = t.busy_cycles - since.busy_cycles;
    spin_cycles = t.spin_cycles - since.spin_cycles;
    idle_cycles = t.idle_cycles - since.idle_cycles;
    migrations_in = t.migrations_in - since.migrations_in;
    migrations_out = t.migrations_out - since.migrations_out;
    ops_completed = t.ops_completed - since.ops_completed;
  }

let copy_into dst src =
  dst.loads <- src.loads;
  dst.stores <- src.stores;
  dst.l1_hits <- src.l1_hits;
  dst.l2_hits <- src.l2_hits;
  dst.l3_hits <- src.l3_hits;
  dst.remote_hits <- src.remote_hits;
  dst.dram_loads <- src.dram_loads;
  dst.invalidations_sent <- src.invalidations_sent;
  dst.busy_cycles <- src.busy_cycles;
  dst.spin_cycles <- src.spin_cycles;
  dst.idle_cycles <- src.idle_cycles;
  dst.migrations_in <- src.migrations_in;
  dst.migrations_out <- src.migrations_out;
  dst.ops_completed <- src.ops_completed

let diff_into dst t ~since =
  dst.loads <- t.loads - since.loads;
  dst.stores <- t.stores - since.stores;
  dst.l1_hits <- t.l1_hits - since.l1_hits;
  dst.l2_hits <- t.l2_hits - since.l2_hits;
  dst.l3_hits <- t.l3_hits - since.l3_hits;
  dst.remote_hits <- t.remote_hits - since.remote_hits;
  dst.dram_loads <- t.dram_loads - since.dram_loads;
  dst.invalidations_sent <- t.invalidations_sent - since.invalidations_sent;
  dst.busy_cycles <- t.busy_cycles - since.busy_cycles;
  dst.spin_cycles <- t.spin_cycles - since.spin_cycles;
  dst.idle_cycles <- t.idle_cycles - since.idle_cycles;
  dst.migrations_in <- t.migrations_in - since.migrations_in;
  dst.migrations_out <- t.migrations_out - since.migrations_out;
  dst.ops_completed <- t.ops_completed - since.ops_completed

let add_into acc x =
  acc.loads <- acc.loads + x.loads;
  acc.stores <- acc.stores + x.stores;
  acc.l1_hits <- acc.l1_hits + x.l1_hits;
  acc.l2_hits <- acc.l2_hits + x.l2_hits;
  acc.l3_hits <- acc.l3_hits + x.l3_hits;
  acc.remote_hits <- acc.remote_hits + x.remote_hits;
  acc.dram_loads <- acc.dram_loads + x.dram_loads;
  acc.invalidations_sent <- acc.invalidations_sent + x.invalidations_sent;
  acc.busy_cycles <- acc.busy_cycles + x.busy_cycles;
  acc.spin_cycles <- acc.spin_cycles + x.spin_cycles;
  acc.idle_cycles <- acc.idle_cycles + x.idle_cycles;
  acc.migrations_in <- acc.migrations_in + x.migrations_in;
  acc.migrations_out <- acc.migrations_out + x.migrations_out;
  acc.ops_completed <- acc.ops_completed + x.ops_completed

let misses t = t.remote_hits + t.dram_loads
