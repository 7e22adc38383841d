open O2_simcore
open O2_runtime

(* Per-object accumulators live in parallel int arrays indexed by the
   dense Memsys object id, grown on demand: no per-event allocation once
   the tables cover the allocated objects. *)
type t = {
  mem : Memsys.t;
  line_bytes : int;
  mutable width : int;
  mutable ops : int array;  (* ct operations started on the object *)
  mutable src : int array array;  (* source -> obj -> lines served *)
  mutable fills_ : int array;
  mutable evictions_ : int array;  (* lost to capacity or coherence *)
  mutable resident_ : int array;  (* lines currently in some cache *)
  mutable unattributed : int;  (* accesses outside any registered object *)
}

let n_sources = 5 (* src_l1 .. src_dram *)

let grow t want =
  if want > t.width then begin
    let w = max 64 (max want (2 * t.width)) in
    let grown old =
      let a = Array.make w 0 in
      Array.blit old 0 a 0 t.width;
      a
    in
    t.ops <- grown t.ops;
    t.src <- Array.map grown t.src;
    t.fills_ <- grown t.fills_;
    t.evictions_ <- grown t.evictions_;
    t.resident_ <- grown t.resident_;
    t.width <- w
  end

let obj_of_line t line = Memsys.object_id_at t.mem ~addr:(line * t.line_bytes)

let on_access t ~now:_ ~core:_ ~line ~source =
  let obj = obj_of_line t line in
  if obj < 0 then t.unattributed <- t.unattributed + 1
  else begin
    grow t (obj + 1);
    let row = t.src.(source) in
    row.(obj) <- row.(obj) + 1
  end

let on_fill t ~cache:_ ~line ~victim =
  if victim >= 0 then begin
    let v = obj_of_line t victim in
    if v >= 0 then begin
      grow t (v + 1);
      t.evictions_.(v) <- t.evictions_.(v) + 1;
      t.resident_.(v) <- t.resident_.(v) - 1
    end
  end;
  let obj = obj_of_line t line in
  if obj >= 0 then begin
    grow t (obj + 1);
    t.fills_.(obj) <- t.fills_.(obj) + 1;
    t.resident_.(obj) <- t.resident_.(obj) + 1
  end

let on_remove t ~cache:_ ~line =
  let obj = obj_of_line t line in
  if obj >= 0 && obj < t.width then begin
    t.evictions_.(obj) <- t.evictions_.(obj) + 1;
    t.resident_.(obj) <- t.resident_.(obj) - 1
  end

let on_event t ev =
  match ev with
  | Probe.Op_started { addr; _ } ->
      let obj = Memsys.object_id_at t.mem ~addr in
      if obj >= 0 then begin
        grow t (obj + 1);
        t.ops.(obj) <- t.ops.(obj) + 1
      end
  | _ -> ()

let attach engine =
  let machine = Engine.machine engine in
  let t =
    {
      mem = Machine.memory machine;
      line_bytes = (Machine.cfg machine).Config.line_bytes;
      width = 0;
      ops = [||];
      src = Array.make n_sources [||];
      fills_ = [||];
      evictions_ = [||];
      resident_ = [||];
      unattributed = 0;
    }
  in
  Machine.observe machine
    {
      Machine.on_access =
        (fun ~now ~core ~line ~source -> on_access t ~now ~core ~line ~source);
      Machine.on_fill = (fun ~cache ~line ~victim -> on_fill t ~cache ~line ~victim);
      Machine.on_remove = (fun ~cache ~line -> on_remove t ~cache ~line);
    };
  Probe.subscribe (Engine.probe engine) (on_event t);
  t

type row = {
  obj : int;
  name : string;
  ops : int;
  l1 : int;
  l2 : int;
  l3 : int;
  remote : int;
  dram : int;
  fills : int;
  evictions : int;
  resident : int;
}

let row t obj =
  {
    obj;
    name =
      (match Memsys.find t.mem obj with
      | Some e -> e.Memsys.name
      | None -> "?");
    ops = t.ops.(obj);
    l1 = t.src.(Machine.src_l1).(obj);
    l2 = t.src.(Machine.src_l2).(obj);
    l3 = t.src.(Machine.src_l3).(obj);
    remote = t.src.(Machine.src_remote).(obj);
    dram = t.src.(Machine.src_dram).(obj);
    fills = t.fills_.(obj);
    evictions = t.evictions_.(obj);
    resident = t.resident_.(obj);
  }

(* Heat order: who costs the chip most. Off-core traffic (remote + DRAM
   line sources) first, operation count second, object id as the
   deterministic tie-break. *)
let churn r = r.remote + r.dram

let tracked t =
  let acc = ref [] in
  for obj = t.width - 1 downto 0 do
    if
      t.ops.(obj) > 0 || t.fills_.(obj) > 0
      || Array.exists (fun row -> row.(obj) > 0) t.src
    then acc := row t obj :: !acc
  done;
  !acc

let top_k t k =
  let rows =
    List.stable_sort
      (fun a b ->
        let c = compare (churn b) (churn a) in
        if c <> 0 then c
        else
          let c = compare b.ops a.ops in
          if c <> 0 then c else compare a.obj b.obj)
      (tracked t)
  in
  List.filteri (fun i _ -> i < k) rows

let unattributed t = t.unattributed

let render ?(top = 10) t =
  let tbl =
    O2_stats.Table.create
      ~columns:
        [
          ("object", O2_stats.Table.Left);
          ("ops", O2_stats.Table.Right);
          ("l1", O2_stats.Table.Right);
          ("l2", O2_stats.Table.Right);
          ("l3", O2_stats.Table.Right);
          ("remote", O2_stats.Table.Right);
          ("dram", O2_stats.Table.Right);
          ("fills", O2_stats.Table.Right);
          ("evict", O2_stats.Table.Right);
          ("resident", O2_stats.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      O2_stats.Table.add_row tbl
        [
          Printf.sprintf "%s (#%d)" r.name r.obj;
          string_of_int r.ops;
          string_of_int r.l1;
          string_of_int r.l2;
          string_of_int r.l3;
          string_of_int r.remote;
          string_of_int r.dram;
          string_of_int r.fills;
          string_of_int r.evictions;
          string_of_int r.resident;
        ])
    (top_k t top);
  let buf = Buffer.create 1024 in
  Printf.ksprintf (Buffer.add_string buf)
    "top %d objects by off-core traffic (remote + DRAM line sources):\n" top;
  Buffer.add_string buf (O2_stats.Table.render tbl);
  if t.unattributed > 0 then
    Printf.ksprintf (Buffer.add_string buf)
      "(%d line accesses outside any registered object)\n" t.unattributed;
  Buffer.contents buf
