open O2_runtime

module IntSet = Set.Make (Int)

(* Shadow-cell state machine. [Exclusive] is Eraser's initialisation
   phase: the first thread may read and write freely. On the first access
   by a second thread the cell becomes [Shared] and the candidate lockset
   starts as that thread's held set, thereafter intersected on every
   access. A shared cell that has seen a write anywhere reports as soon as
   the candidate set is empty. *)
type state = Virgin | Exclusive | Shared

type cell = {
  mutable state : state;
  mutable lockset : IntSet.t;  (* candidate set; meaningful when Shared *)
  mutable wrote : bool;
  mutable last_tid : int;
  mutable last_core : int;
  mutable other_tid : int;  (* most recent access by a thread <> last_tid *)
  mutable other_core : int;
  mutable reported : bool;
}

(* Per-thread held set: real spin locks plus virtual per-object home
   locks. A count map backs the cached set so re-entrant virtual locks
   (nested ops on one object) balance correctly. *)
type held = {
  counts : (int, int) Hashtbl.t;
  mutable set : IntSet.t;
  mutable op_tokens : int option list;  (* stack, one per open op *)
}

type t = {
  shift : int;
  report : Report.t;
  name_of : int -> string option;
  cells : (int, cell) Hashtbl.t;
  held : (int, held) Hashtbl.t;  (* by thread id *)
  subjects_reported : (string, unit) Hashtbl.t;
  mutable races : int;
}

let create ?(granularity = 64) ~report ~name_of () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Lockset.create: granularity must be a positive power of two";
  let shift =
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    log2 granularity 0
  in
  {
    shift;
    report;
    name_of;
    cells = Hashtbl.create 4096;
    held = Hashtbl.create 64;
    subjects_reported = Hashtbl.create 16;
    races = 0;
  }

let held_of t tid =
  match Hashtbl.find_opt t.held tid with
  | Some h -> h
  | None ->
      let h = { counts = Hashtbl.create 8; set = IntSet.empty; op_tokens = [] } in
      Hashtbl.add t.held tid h;
      h

let acquire t tid token =
  let h = held_of t tid in
  let n = Option.value ~default:0 (Hashtbl.find_opt h.counts token) in
  Hashtbl.replace h.counts token (n + 1);
  if n = 0 then h.set <- IntSet.add token h.set

let release t tid token =
  let h = held_of t tid in
  match Hashtbl.find_opt h.counts token with
  | None | Some 0 -> ()  (* engine enforces ownership; be lenient here *)
  | Some 1 ->
      Hashtbl.remove h.counts token;
      h.set <- IntSet.remove token h.set
  | Some n -> Hashtbl.replace h.counts token (n - 1)

(* Virtual home-lock token for the object at [base]: a negative number
   outside the simulated address space, so it can never collide with a
   real lock word's address. *)
let home_token base = lnot base

let cell_of t line =
  match Hashtbl.find_opt t.cells line with
  | Some c -> c
  | None ->
      let c =
        {
          state = Virgin;
          lockset = IntSet.empty;
          wrote = false;
          last_tid = -1;
          last_core = -1;
          other_tid = -1;
          other_core = -1;
          reported = false;
        }
      in
      Hashtbl.add t.cells line c;
      c

let report_race t ~line ~cell ~tid ~core ~time =
  cell.reported <- true;
  t.races <- t.races + 1;
  (* The racing access may come from the thread that also made the last
     one; the other party is then the latest access by a different
     thread (a cell only reaches Shared after two threads touched it). *)
  let other_tid, other_core =
    if cell.last_tid <> tid then (cell.last_tid, cell.last_core)
    else (cell.other_tid, cell.other_core)
  in
  let addr = line lsl t.shift in
  let subject =
    match t.name_of addr with
    | Some n -> n
    | None -> Printf.sprintf "line %#x" addr
  in
  (* One diagnostic per object keeps a racy scan from producing a report
     for each of its lines. *)
  if not (Hashtbl.mem t.subjects_reported subject) then begin
    Hashtbl.add t.subjects_reported subject ();
    Report.add t.report
      (Diagnostic.make ~checker:"lockset" ~code:"race" ~time
         ~cores:[ other_core; core ]
         ~threads:[ other_tid; tid ]
         ~addr ~subject
         (Printf.sprintf
            "data race on %s at %#x: written while shared with an empty \
             lockset; cores %d and %d (threads %d and %d) access it with no \
             common lock or home-core discipline"
            subject addr other_core core other_tid tid))
  end

let touch t ~time ~core ~tid ~store line =
  let cell = cell_of t line in
  let held = (held_of t tid).set in
  (match cell.state with
  | Virgin ->
      cell.state <- Exclusive;
      cell.wrote <- store
  | Exclusive when cell.last_tid = tid -> cell.wrote <- cell.wrote || store
  | Exclusive ->
      cell.state <- Shared;
      cell.lockset <- held;
      cell.wrote <- cell.wrote || store;
      if cell.wrote && IntSet.is_empty held && not cell.reported then
        report_race t ~line ~cell ~tid ~core ~time
  | Shared ->
      cell.lockset <- IntSet.inter cell.lockset held;
      cell.wrote <- cell.wrote || store;
      if cell.wrote && IntSet.is_empty cell.lockset && not cell.reported then
        report_race t ~line ~cell ~tid ~core ~time);
  if cell.last_tid <> tid && cell.last_tid >= 0 then begin
    cell.other_tid <- cell.last_tid;
    cell.other_core <- cell.last_core
  end;
  cell.last_tid <- tid;
  cell.last_core <- core

(* Bound the per-access work: a huge streaming access degenerates to its
   first cells rather than stalling the simulation. *)
let max_cells_per_access = 4096

let on_event t ev =
  match ev with
  | Probe.Mem { time; core; tid; kind; addr; len } ->
      let store = kind = Probe.Store in
      let first = addr asr t.shift in
      let last = (addr + max 1 len - 1) asr t.shift in
      let last = min last (first + max_cells_per_access - 1) in
      for line = first to last do
        touch t ~time ~core ~tid ~store line
      done
  | Probe.Lock_acquired { tid; lock; _ } -> acquire t tid lock.Probe.lock_addr
  | Probe.Lock_released { tid; lock; _ } -> release t tid lock.Probe.lock_addr
  | Probe.Op_started { tid; core; addr; home; _ } ->
      let h = held_of t tid in
      let token =
        match home with
        | Some hc when hc = core ->
            let tok = home_token addr in
            acquire t tid tok;
            Some tok
        | Some _ | None -> None
      in
      h.op_tokens <- token :: h.op_tokens
  | Probe.Op_ended { tid; _ } -> (
      let h = held_of t tid in
      match h.op_tokens with
      | [] -> ()  (* unmatched end is the invariant checker's finding *)
      | tok :: rest ->
          h.op_tokens <- rest;
          (match tok with Some token -> release t tid token | None -> ()))
  | Probe.Thread_finished _ | Probe.Thread_spawned _ | Probe.Thread_moved _
  | Probe.Op_requested _ | Probe.Rebalanced _ | Probe.Decision _ ->
      ()

let races_found t = t.races
