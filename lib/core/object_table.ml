type obj = {
  base : int;
  size : int;
  name : string;
  seq : int;
  mutable home : int option;
  mutable ewma_misses : float;
  mutable ops_total : int;
  mutable ops_period : int;
  mutable idle_periods : int;
  mutable writes : int;
  mutable replicated : bool;
  mutable assigns : int;
  mutable owner_pid : int;
  mutable link_prev : obj option;
  mutable link_next : obj option;
  mutable active_next : obj option;
  mutable in_active : bool;
}

(* Keyed by base address with an int equality, so a lookup on every
   [ct_start] pays no polymorphic compare. The hash is [Hashtbl.hash], as
   the generic table's, so buckets and iteration order are unchanged. *)
module By_base = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Three incremental indexes keep the monitor's cost proportional to what
   it actually touches, not to the table size:

   - [all]/[n_objs]: registration order, for [iter]/[fold] and
     full-table audits;
   - [heads]: per-core intrusive doubly-linked assignment lists threaded
     through [link_prev]/[link_next], so iterating a core's objects is
     O(assigned-on-core) with zero allocation;
   - [active_head]: a singly-linked list of objects operated on since the
     last [drain_active], threaded through [active_next]/[in_active] and
     appended to by the first [note_op] of the period.  The rebalancer
     drains it instead of resetting every registered object's
     [ops_period]. *)
type t = {
  by_base : obj By_base.t;
  used_ : int array;  (* bytes assigned per core *)
  budget_ : int;
  mutable all : obj array;  (* registration order; first [n_objs] live *)
  mutable n_objs : int;
  heads : obj option array;  (* per-core assigned lists, newest first *)
  mutable active_head : obj option;
  mutable active_n : int;
  mutable assigned_n : int;
}

let create ~cores ~budget_per_core =
  if cores <= 0 then invalid_arg "Object_table.create: cores";
  if budget_per_core <= 0 then invalid_arg "Object_table.create: budget";
  {
    by_base = By_base.create 1024;
    used_ = Array.make cores 0;
    budget_ = budget_per_core;
    all = [||];
    n_objs = 0;
    heads = Array.make cores None;
    active_head = None;
    active_n = 0;
    assigned_n = 0;
  }

let register t ?(pid = 0) ~base ~size ~name () =
  if size <= 0 then invalid_arg "Object_table.register: size must be positive";
  if By_base.mem t.by_base base then
    invalid_arg
      (Printf.sprintf "Object_table.register: duplicate object at %#x" base);
  let o =
    {
      base;
      size;
      name;
      seq = t.n_objs;
      home = None;
      ewma_misses = 0.0;
      ops_total = 0;
      ops_period = 0;
      idle_periods = 0;
      writes = 0;
      replicated = false;
      assigns = 0;
      owner_pid = pid;
      link_prev = None;
      link_next = None;
      active_next = None;
      in_active = false;
    }
  in
  By_base.add t.by_base base o;
  if t.n_objs = Array.length t.all then begin
    let grown = Array.make (max 16 (2 * t.n_objs)) o in
    Array.blit t.all 0 grown 0 t.n_objs;
    t.all <- grown
  end;
  t.all.(t.n_objs) <- o;
  t.n_objs <- t.n_objs + 1;
  o

let find t base = By_base.find_opt t.by_base base

let iter t f =
  for i = 0 to t.n_objs - 1 do
    f t.all.(i)
  done

let fold t f init =
  let acc = ref init in
  for i = 0 to t.n_objs - 1 do
    acc := f !acc t.all.(i)
  done;
  !acc

let size t = By_base.length t.by_base

let unassign t o =
  match o.home with
  | None -> ()
  | Some core ->
      t.used_.(core) <- t.used_.(core) - o.size;
      t.assigned_n <- t.assigned_n - 1;
      o.home <- None;
      (match o.link_prev with
      | Some p -> p.link_next <- o.link_next
      | None -> t.heads.(core) <- o.link_next);
      (match o.link_next with
      | Some nx -> nx.link_prev <- o.link_prev
      | None -> ());
      o.link_prev <- None;
      o.link_next <- None

let assign t o core =
  if core < 0 || core >= Array.length t.used_ then
    invalid_arg "Object_table.assign: core out of range";
  unassign t o;
  o.home <- Some core;
  o.assigns <- o.assigns + 1;
  t.used_.(core) <- t.used_.(core) + o.size;
  t.assigned_n <- t.assigned_n + 1;
  o.link_next <- t.heads.(core);
  (match t.heads.(core) with Some h -> h.link_prev <- Some o | None -> ());
  t.heads.(core) <- Some o

let budget t = t.budget_
let cores t = Array.length t.used_
let used t core = t.used_.(core)
let total_used t = Array.fold_left ( + ) 0 t.used_

let occupancy t =
  float_of_int (total_used t)
  /. float_of_int (t.budget_ * Array.length t.used_)
let free_space t core = t.budget_ - t.used_.(core)

(* Tail-recursive so iterating (and draining, below) creates no ref
   cells: these run inside the monitor's zero-allocation period. The
   successor is read before [f] runs so [f] may unassign or move the
   object it was handed. *)
let rec iter_links f = function
  | None -> ()
  | Some o ->
      let next = o.link_next in
      f o;
      iter_links f next

let iter_assigned t ~core f = iter_links f t.heads.(core)

let rec fold_links f acc = function
  | None -> acc
  | Some o ->
      let next = o.link_next in
      fold_links f (f acc o) next

let fold_assigned t ~core f init = fold_links f init t.heads.(core)

let assigned t ~core =
  (* per-core list order is newest-assignment-first; re-sorting by
     registration sequence preserves the order the full-scan filter used
     to produce, so printed assignments stay stable *)
  fold_assigned t ~core (fun acc o -> o :: acc) []
  |> List.sort (fun a b -> compare a.seq b.seq)

let assigned_count t = t.assigned_n

let note_op t o =
  o.ops_total <- o.ops_total + 1;
  o.ops_period <- o.ops_period + 1;
  if not o.in_active then begin
    o.in_active <- true;
    o.active_next <- t.active_head;
    t.active_head <- ((Some o) [@alloc_ok "one option cell per first-op-of-period"]);
    t.active_n <- t.active_n + 1
  end

let rec iter_active_links f = function
  | None -> ()
  | Some o ->
      let next = o.active_next in
      f o;
      iter_active_links f next

let iter_active t f = iter_active_links f t.active_head

let active_count t = t.active_n

let rec drain_links = function
  | None -> ()
  | Some o ->
      let next = o.active_next in
      o.ops_period <- 0;
      o.in_active <- false;
      o.active_next <- None;
      drain_links next

let drain_active t =
  drain_links t.active_head;
  t.active_head <- None;
  t.active_n <- 0

let fits t ~core o = o.size <= free_space t core

let can_place t o = Array.exists (fun u -> u + o.size <= t.budget_) t.used_

let check_accounting t =
  let n = Array.length t.used_ in
  let recomputed = Array.make n 0 in
  let homed = Array.make n 0 in
  By_base.iter
    (fun _ o ->
      match o.home with
      | Some c when c >= 0 && c < n ->
          recomputed.(c) <- recomputed.(c) + o.size;
          homed.(c) <- homed.(c) + 1
      | Some _ | None -> ())
    t.by_base;
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  for c = 0 to n - 1 do
    if recomputed.(c) <> t.used_.(c) then
      fail "core %d: accounted %d bytes, actual %d" c t.used_.(c) recomputed.(c)
  done;
  (* cross-check the per-core index lists against the [home] fields: every
     listed object is homed here, links are mutually consistent, and the
     list holds exactly the objects whose [home] says it should *)
  for c = 0 to n - 1 do
    let listed = ref 0 in
    let cur = ref t.heads.(c) in
    let prev = ref None in
    let continue_ = ref true in
    while !continue_ do
      match !cur with
      | None -> continue_ := false
      | Some o ->
          incr listed;
          if !listed > t.n_objs then begin
            fail "core %d: assignment list cycles" c;
            continue_ := false
          end
          else begin
            if o.home <> Some c then
              fail "core %d: list holds %s whose home is %s" c o.name
                (match o.home with
                | Some h -> string_of_int h
                | None -> "unassigned");
            (match (o.link_prev, !prev) with
            | None, None -> ()
            | Some p, Some q when p == q -> ()
            | _ -> fail "core %d: broken back-link at %s" c o.name);
            prev := Some o;
            cur := o.link_next
          end
    done;
    if !listed <> homed.(c) then
      fail "core %d: %d objects on the index list, %d homed there" c !listed
        homed.(c)
  done;
  (* the active list must cover exactly the objects with pending period
     ops, and its length counter must agree *)
  let active_listed = ref 0 in
  let cur = ref t.active_head in
  let continue_ = ref true in
  while !continue_ do
    match !cur with
    | None -> continue_ := false
    | Some o ->
        incr active_listed;
        if !active_listed > t.n_objs then begin
          fail "active list cycles";
          continue_ := false
        end
        else begin
          if not o.in_active then fail "active list holds %s (not in_active)" o.name;
          cur := o.active_next
        end
  done;
  if !active_listed <> t.active_n then
    fail "active list length %d, counter %d" !active_listed t.active_n;
  iter t (fun o ->
      if o.ops_period > 0 && not o.in_active then
        fail "%s has %d period ops but is missing from the active list" o.name
          o.ops_period);
  let assigned_recount = Array.fold_left ( + ) 0 homed in
  if assigned_recount <> t.assigned_n then
    fail "assigned counter %d, actual %d" t.assigned_n assigned_recount;
  match !err with None -> Ok () | Some e -> Error e
