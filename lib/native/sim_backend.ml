open O2_runtime

type t = {
  engine : Engine.t;
  ct : Coretime.t;
  mem : O2_simcore.Memsys.t;
  mutable nobjs : int;
  mutable bases : int array;  (* obj -> extent base address *)
  mutable op_counts : int array;  (* obj -> Op_started count, via probe *)
  by_addr : (int, int) Hashtbl.t;  (* base address -> obj handle *)
}

let create ?(cfg = O2_simcore.Config.amd16) () =
  let machine = O2_simcore.Machine.create cfg in
  let engine = Engine.create machine in
  let ct = Coretime.create engine () in
  let t =
    {
      engine;
      ct;
      mem = O2_simcore.Machine.memory machine;
      nobjs = 0;
      bases = Array.make 16 0;
      op_counts = Array.make 16 0;
      by_addr = Hashtbl.create 64;
    }
  in
  (* Reconstruct per-object op counts the same way the native backend
     counts them at execution sites: one tick per op arrival. *)
  Probe.subscribe (Engine.probe engine) (fun ev ->
      match ev with
      | Probe.Op_started { addr; _ } -> (
          match Hashtbl.find_opt t.by_addr addr with
          | Some o -> t.op_counts.(o) <- t.op_counts.(o) + 1
          | None -> ())
      | _ -> ());
  t

let engine t = t.engine
let coretime t = t.ct
let name _ = "sim"
let priced = true
let cores t = Engine.cores t.engine
let probe t = Engine.probe t.engine
let objects t = t.nobjs

let register t ~size ~name =
  if size <= 0 then invalid_arg "Sim_backend.register: size must be > 0";
  let ext = O2_simcore.Memsys.alloc t.mem ~name ~size in
  let base = ext.O2_simcore.Memsys.base in
  ignore (Coretime.register t.ct ~base ~size ~name ());
  let o = t.nobjs in
  if o >= Array.length t.bases then begin
    let cap = Array.length t.bases * 2 in
    let bases = Array.make cap 0 and counts = Array.make cap 0 in
    Array.blit t.bases 0 bases 0 o;
    Array.blit t.op_counts 0 counts 0 o;
    t.bases <- bases;
    t.op_counts <- counts
  end;
  t.nobjs <- o + 1;
  t.bases.(o) <- base;
  Hashtbl.replace t.by_addr base o;
  o

let spawn t ~core ~name body = ignore (Engine.spawn t.engine ~core ~name body)
let with_op t ?write obj f = Coretime.with_op t.ct ?write t.bases.(obj) f

let touch t ~write ~obj ~off ~len =
  if len > 0 then begin
    let addr = t.bases.(obj) + off in
    if write then ignore (Api.write ~addr ~len) else ignore (Api.read ~addr ~len)
  end

let compute _t cycles = Api.compute cycles
let run t = Engine.run t.engine
let ops_completed t = (Coretime.stats t.ct).Coretime.ops
let object_ops t o = t.op_counts.(o)

let ships t =
  (* Every ct_start migration is one departure and one arrival, so the
     balance invariant holds by construction on this backend. *)
  let m = (Coretime.stats t.ct).Coretime.op_migrations in
  (m, m)

let migrations t =
  (Coretime.Rebalancer.stats (Coretime.rebalancer t.ct)).Coretime.Rebalancer.moves
