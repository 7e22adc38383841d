(* A bounded model check of the native backend's first-write grace
   period: Native_pool.pass / await_grace, and Native_backend's with_op
   and claim_home around them. The protocol is restated as a step
   machine over its shared words, and every interleaving of its actors
   is enumerated exhaustively.

   Each actor runs on its own domain. A step is one shared-memory access
   of the real code, in program order, over sequentially consistent
   memory: the model checks the order of the protocol's accesses, and
   the happens-before argument in Native_backend's header is what makes
   the real memory model keep that order. An actor whose program has
   ended is back in its worker loop, and its one step is the loop's
   pass, modelled as a single step since no body is left for the ack to
   cover.

   Checked over every reachable state:
   - safety: no body read sees a half-done write of its object, and no
     data write lands between a local body's two reads;
   - no deadlock: from every reachable state, a state in which every
     actor's program has ended can still be reached. *)

type instr =
  | Load_grace  (* pass, first half: gl := grace *)
  | Store_ack  (* pass, second half: ack.(me) := gl if it moved *)
  | Load_home of int  (* homed -> the op ships and ends here *)
  | Read of int * int  (* body read of word i of object o *)
  | Flip of int  (* claim_home's plain home flip *)
  | Bump  (* g := grace + 1, grace := g *)
  | Await  (* spin until every other ack >= g, passing meanwhile *)
  | Write of int * int  (* data write of word i of object o *)

type actor = { dom : int; prog : instr array }

(* The protocol and three broken variants of it. *)
type variant = Correct | Bump_before_flip | No_self_pass | Ack_before_body

let pass = [ Load_grace; Store_ack ]

(* An op on [o]: pass at entry, load the home, run the body in place,
   pass at the next entry. *)
let reader v ~dom o =
  let body = [ Read (o, 0); Read (o, 1) ] in
  let rest =
    match v with Ack_before_body -> pass @ body | _ -> body @ pass
  in
  { dom; prog = Array.of_list ((pass @ [ Load_home o ]) @ rest) }

(* The first write of [o], run on its home: pass at entry, claim, then
   the body's two data writes. *)
let writer v ~dom o =
  let claim =
    match v with Bump_before_flip -> [ Bump; Flip o ] | _ -> [ Flip o; Bump ]
  in
  {
    dom;
    prog = Array.of_list (pass @ claim @ [ Await; Write (o, 0); Write (o, 1) ]);
  }

type config = { actors : actor array; objects : int; self_pass : bool }

(* State layout, one int array: grace, one ack per domain, a homed flag
   per object, two data words per object, then per actor its program
   counter and registers gl (generation loaded), g (own generation),
   r (first body read), k (domain awaited) and ph (spin phase). *)
let domains c = Array.length c.actors
let ack d = 1 + d
let homed c o = 1 + domains c + o
let data c o i = 1 + domains c + c.objects + (2 * o) + i
let base c a = 1 + domains c + (3 * c.objects) + (6 * a)
let state_size c = base c (Array.length c.actors)

let finished c s a = s.(base c a) >= Array.length c.actors.(a).prog

(* Some actor's next instruction satisfies [p]. *)
let some_next c s p =
  let hit = ref false in
  Array.iteri
    (fun a act ->
      if (not (finished c s a)) && p act.prog.(s.(base c a)) then hit := true)
    c.actors;
  !hit

(* Some actor has written word 0 of [o] and not yet word 1. *)
let mid_write c s o =
  some_next c s (function Write (o', 1) -> o' = o | _ -> false)

(* Some actor has made the first body read of [o] and not the second. *)
let mid_body c s o =
  some_next c s (function Read (o', 1) -> o' = o | _ -> false)

type outcome = {
  states : int;
  violations : string list;  (* distinct, first seen first *)
  stuck : int;  (* reachable states from which no run can finish *)
  local_bodies : int;  (* body reads executed, over all edges *)
  ships : int;  (* home loads that saw the object homed *)
}

(* One step of actor [a] from [s], or [None] when it has nothing left
   to do. [flag] records a safety violation; [event] counts the model's
   two outcomes of a home load. *)
let step c s a ~flag ~event =
  let act = c.actors.(a) in
  let me = act.dom in
  let f = base c a in
  let pc = s.(f) in
  let n = Array.length act.prog in
  if pc >= n then
    if s.(0) <> s.(ack me) then begin
      let s' = Array.copy s in
      s'.(ack me) <- s.(0);
      Some s'
    end
    else None
  else begin
    let s' = Array.copy s in
    s'.(f) <- pc + 1;
    (match act.prog.(pc) with
    | Load_grace -> s'.(f + 1) <- s.(0)
    | Store_ack -> if s.(f + 1) <> s.(ack me) then s'.(ack me) <- s.(f + 1)
    | Load_home o ->
        if s.(homed c o) = 1 then begin
          event `Ship;
          s'.(f) <- n
        end
    | Read (o, i) ->
        event `Body;
        if mid_write c s o then flag "a body read saw a half-done write";
        let v = s.(data c o i) in
        if i = 0 then s'.(f + 3) <- v
        else if v <> s.(f + 3) then flag "a body read a torn pair"
    | Flip o -> s'.(homed c o) <- 1
    | Bump ->
        let g = s.(0) + 1 in
        s'.(0) <- g;
        s'.(f + 2) <- g
    | Write (o, i) ->
        if mid_body c s o then flag "a data write landed inside a local body";
        s'.(data c o i) <- 1
    | Await ->
        s'.(f) <- pc;
        let k = s.(f + 4) in
        let k = if k = me then k + 1 else k in
        if k >= domains c then begin
          s'.(f) <- pc + 1;
          s'.(f + 4) <- 0
        end
        else begin
          match s.(f + 5) with
          | 0 ->
              if s.(ack k) >= s.(f + 2) then s'.(f + 4) <- k + 1
              else if c.self_pass then s'.(f + 5) <- 1
          | 1 ->
              s'.(f + 1) <- s.(0);
              s'.(f + 5) <- 2
          | _ ->
              if s.(f + 1) <> s.(ack me) then s'.(ack me) <- s.(f + 1);
              s'.(f + 5) <- 0
        end);
    Some s'
  end

module States = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = Hashtbl.hash_param 64 64
end)

let explore c =
  let ids = States.create 4096 in
  let edges = ref [] and finals = ref [] and violations = ref [] in
  let local_bodies = ref 0 and ships = ref 0 in
  let flag msg =
    if not (List.mem msg !violations) then violations := msg :: !violations
  in
  let event = function `Ship -> incr ships | `Body -> incr local_bodies in
  let id s =
    match States.find_opt ids s with
    | Some i -> (i, false)
    | None ->
        let i = States.length ids in
        States.add ids s i;
        (i, true)
  in
  let init = Array.make (state_size c) 0 in
  let todo = Stack.create () in
  Stack.push (fst (id init), init) todo;
  while not (Stack.is_empty todo) do
    let i, s = Stack.pop todo in
    let na = Array.length c.actors in
    if List.for_all (finished c s) (List.init na Fun.id) then
      finals := i :: !finals;
    for a = 0 to na - 1 do
      match step c s a ~flag ~event with
      | None -> ()
      | Some s' ->
          let j, fresh = id s' in
          edges := (i, j) :: !edges;
          if fresh then Stack.push (j, s') todo
    done
  done;
  (* Backward reachability from the finished states. *)
  let n = States.length ids in
  let preds = Array.make n [] in
  List.iter (fun (i, j) -> preds.(j) <- i :: preds.(j)) !edges;
  let live = Array.make n false in
  let rec mark i =
    if not live.(i) then begin
      live.(i) <- true;
      List.iter mark preds.(i)
    end
  in
  List.iter mark !finals;
  {
    states = n;
    violations = List.rev !violations;
    stuck = Array.fold_left (fun acc l -> if l then acc else acc + 1) 0 live;
    local_bodies = !local_bodies;
    ships = !ships;
  }

(* A reader of object 0 on domain 0 and its first writer on domain 1;
   with [two_writers], also the first writer of object 1 on domain 2. *)
let config ?(two_writers = false) v =
  let ws = if two_writers then [ writer v ~dom:2 1 ] else [] in
  {
    actors = Array.of_list ([ reader v ~dom:0 0; writer v ~dom:1 0 ] @ ws);
    objects = (if two_writers then 2 else 1);
    self_pass = (match v with No_self_pass -> false | _ -> true);
  }

let check_clean name o =
  Alcotest.(check (list string)) (name ^ ": no violation") [] o.violations;
  Alcotest.(check int) (name ^ ": no deadlock") 0 o.stuck;
  (* Not vacuous: some interleaving runs the body in place and some
     other ships the op to the new home. *)
  Alcotest.(check bool) (name ^ ": a body ran in place") true (o.local_bodies > 0);
  Alcotest.(check bool) (name ^ ": an op shipped") true (o.ships > 0)

let test_one_writer () = check_clean "reader and writer" (explore (config Correct))

let test_two_writers () =
  let o = explore (config ~two_writers:true Correct) in
  check_clean "reader and two writers" o;
  Alcotest.(check bool) "thousands of states" true (o.states > 1000)

(* Each broken variant fails the check it should, in the smallest
   configuration that shows it. *)
let test_mutants_caught () =
  let unsafe name v =
    let o = explore (config v) in
    Alcotest.(check bool) (name ^ " is caught as unsafe") true
      (o.violations <> [])
  in
  unsafe "bump before flip" Bump_before_flip;
  unsafe "ack before the body" Ack_before_body;
  let o = explore (config ~two_writers:true No_self_pass) in
  Alcotest.(check bool) "no self-pass is caught as a deadlock" true (o.stuck > 0);
  Alcotest.(check (list string)) "no self-pass stays safe" [] o.violations

let suite =
  [
    Alcotest.test_case "one reader, one first writer" `Quick test_one_writer;
    Alcotest.test_case "one reader, two first writers" `Quick test_two_writers;
    Alcotest.test_case "three broken variants are caught" `Quick
      test_mutants_caught;
  ]
