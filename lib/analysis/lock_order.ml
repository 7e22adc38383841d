open O2_runtime

module IntSet = Set.Make (Int)

type t = {
  report : Report.t;
  (* lock addr -> locks acquired while it was held (order edges) *)
  succ : (int, IntSet.t ref) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  owners : (int, int) Hashtbl.t;  (* lock addr -> owning tid *)
  held : (int, Probe.lock_info list) Hashtbl.t;  (* tid -> stack *)
  mutable edge_count : int;
}

let create ~report () =
  {
    report;
    succ = Hashtbl.create 32;
    names = Hashtbl.create 32;
    owners = Hashtbl.create 32;
    held = Hashtbl.create 64;
    edge_count = 0;
  }

let succ_of t a =
  match Hashtbl.find_opt t.succ a with
  | Some s -> s
  | None ->
      let s = ref IntSet.empty in
      Hashtbl.add t.succ a s;
      s

let name t a =
  match Hashtbl.find_opt t.names a with
  | Some n -> n
  | None -> Printf.sprintf "lock@%#x" a

(* Is [target] reachable from [from] in the order graph? The graph holds
   one node per lock ever observed — small — so plain DFS suffices. *)
let reachable t ~from ~target =
  let visited = Hashtbl.create 16 in
  let rec go a =
    a = target
    || (not (Hashtbl.mem visited a))
       && begin
            Hashtbl.add visited a ();
            match Hashtbl.find_opt t.succ a with
            | None -> false
            | Some s -> IntSet.exists go !s
          end
  in
  go from

let add_edge t ~tid ~time ~held_addr ~acquired =
  let s = succ_of t held_addr in
  if not (IntSet.mem acquired !s) then begin
    (* Before inserting held->acquired, a path acquired ~> held means some
       other chain takes them in the opposite order: a potential cycle. *)
    if reachable t ~from:acquired ~target:held_addr then
      Report.add t.report
        (Diagnostic.make ~checker:"lock-order" ~code:"deadlock-cycle" ~time
           ~threads:[ tid ]
           ~subject:
             (Printf.sprintf "%s<->%s"
                (name t (min held_addr acquired))
                (name t (max held_addr acquired)))
           (Printf.sprintf
              "potential deadlock: thread %d acquires %s while holding %s, \
               but the opposite order %s -> %s was also observed"
              tid (name t acquired) (name t held_addr) (name t acquired)
              (name t held_addr)));
    s := IntSet.add acquired !s;
    t.edge_count <- t.edge_count + 1
  end

let on_event t ev =
  match ev with
  | Probe.Lock_acquired { time; tid; lock; _ } ->
      Hashtbl.replace t.names lock.Probe.lock_addr lock.Probe.lock_name;
      (match Hashtbl.find_opt t.owners lock.Probe.lock_addr with
      | Some prev ->
          (* The engine hands a lock off before the waiter's grant runs, so
             an owned lock being re-granted would mean the hand-off logic
             double-granted it. *)
          Report.add t.report
            (Diagnostic.make ~checker:"lock-order" ~code:"double-grant" ~time
               ~threads:[ prev; tid ] ~addr:lock.Probe.lock_addr
               ~subject:lock.Probe.lock_name
               (Printf.sprintf
                  "%s granted to thread %d while still owned by thread %d"
                  lock.Probe.lock_name tid prev))
      | None -> ());
      Hashtbl.replace t.owners lock.Probe.lock_addr tid;
      let held = Option.value ~default:[] (Hashtbl.find_opt t.held tid) in
      List.iter
        (fun (h : Probe.lock_info) ->
          if h.Probe.lock_addr <> lock.Probe.lock_addr then
            add_edge t ~tid ~time ~held_addr:h.Probe.lock_addr
              ~acquired:lock.Probe.lock_addr)
        held;
      Hashtbl.replace t.held tid (lock :: held)
  | Probe.Lock_released { time; tid; lock; _ } ->
      (match Hashtbl.find_opt t.owners lock.Probe.lock_addr with
      | Some owner when owner <> tid ->
          Report.add t.report
            (Diagnostic.make ~checker:"lock-order" ~code:"foreign-release"
               ~time ~threads:[ owner; tid ] ~addr:lock.Probe.lock_addr
               ~subject:lock.Probe.lock_name
               (Printf.sprintf "%s released by thread %d but owned by %d"
                  lock.Probe.lock_name tid owner))
      | Some _ | None -> ());
      Hashtbl.remove t.owners lock.Probe.lock_addr;
      let held = Option.value ~default:[] (Hashtbl.find_opt t.held tid) in
      let rec drop_first = function
        | [] -> []
        | (h : Probe.lock_info) :: rest ->
            if h.Probe.lock_addr = lock.Probe.lock_addr then rest
            else h :: drop_first rest
      in
      Hashtbl.replace t.held tid (drop_first held)
  | Probe.Thread_finished { time; tid; core } -> (
      match Hashtbl.find_opt t.held tid with
      | Some ((_ :: _) as held) ->
          Report.add t.report
            (Diagnostic.make ~checker:"lock-order" ~code:"held-at-exit" ~time
               ~cores:[ core ] ~threads:[ tid ]
               ~subject:(Printf.sprintf "thread %d" tid)
               (Printf.sprintf "thread %d finished still holding %s" tid
                  (String.concat ", "
                     (List.map (fun (l : Probe.lock_info) -> l.Probe.lock_name)
                        held))));
          Hashtbl.remove t.held tid
      | Some [] | None -> ())
  | Probe.Mem _ | Probe.Thread_spawned _ | Probe.Thread_moved _
  | Probe.Op_requested _ | Probe.Op_started _ | Probe.Op_ended _
  | Probe.Rebalanced _ | Probe.Decision _ ->
      ()

let finish _t = ()
