type waiter = { thread : Thread.t; attempt : int; grant : int -> unit }

type t = {
  name : string;
  addr : int;
  mutable owner : int option;
  waiters : waiter Queue.t;
  mutable acquisitions : int;
  mutable contended : int;
}

let create mem ~name =
  let ext = O2_simcore.Memsys.alloc_isolated mem ~name ~size:8 in
  {
    name;
    addr = ext.O2_simcore.Memsys.base;
    owner = None;
    waiters = Queue.create ();
    acquisitions = 0;
    contended = 0;
  }

let held t = t.owner <> None
let owner t = t.owner
