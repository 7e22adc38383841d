type level = L1 | L2 | L3

(* A thin shell over the flat Lru arrays: identity (level/owner, for
   observers and reports) plus the watcher hook. Hit/miss accounting
   lives in the per-core Counters the experiments actually read — this
   record deliberately carries no per-cache stat fields, so a probe is
   exactly an Lru touch. *)
type t = {
  level : level;
  owner : int;
  lru : Lru.t;
  mutable watcher : watcher option;
}

and watcher = {
  on_fill : t -> line:int -> victim:int -> unit;
  on_remove : t -> line:int -> unit;
}

let create level ~owner ~cap_bytes ~line_bytes =
  if cap_bytes < line_bytes then
    invalid_arg "Cache.create: capacity smaller than one line";
  { level; owner; lru = Lru.create ~cap:(cap_bytes / line_bytes); watcher = None }

let set_watcher t w = t.watcher <- w

let level t = t.level
let owner t = t.owner
let capacity_lines t = Lru.capacity t.lru
let resident_lines t = Lru.length t.lru

let[@inline] probe t line = Lru.touch t.lru line
let[@inline] probe_run t first last = Lru.touch_run t.lru first last
let[@inline] contains t line = Lru.mem t.lru line

let[@inline] notify_fill t line victim =
  match t.watcher with None -> () | Some w -> w.on_fill t ~line ~victim

let fill_evict t line =
  let victim = Lru.add_evict t.lru line in
  notify_fill t line victim;
  victim

let fill_absent t line =
  let victim = Lru.insert_absent t.lru line in
  notify_fill t line victim;
  victim

let notify_remove t line =
  match t.watcher with None -> () | Some w -> w.on_remove t ~line

let drop t line =
  let present = Lru.remove t.lru line in
  if present then notify_remove t line;
  present

let iter_lines f t = Lru.iter f t.lru

let level_to_string = function L1 -> "L1" | L2 -> "L2" | L3 -> "L3"

let name t =
  Printf.sprintf "%s[%s%d]" (level_to_string t.level)
    (match t.level with L3 -> "chip" | L1 | L2 -> "core")
    t.owner
