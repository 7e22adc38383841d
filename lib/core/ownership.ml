type acct = { mutable ops : int; mutable cycles : int }
type t = { table : (int, acct) Hashtbl.t; mutable total : int }

let create () = { table = Hashtbl.create 16; total = 0 }

let acct t pid =
  match Hashtbl.find_opt t.table pid with
  | Some a -> a
  | None ->
      let a = { ops = 0; cycles = 0 } in
      Hashtbl.add t.table pid a;
      a

let charge t ~pid ~cycles =
  let a = acct t pid in
  a.ops <- a.ops + 1;
  a.cycles <- a.cycles + cycles;
  t.total <- t.total + cycles

let ops t ~pid = match Hashtbl.find_opt t.table pid with Some a -> a.ops | None -> 0

let cycles t ~pid =
  match Hashtbl.find_opt t.table pid with Some a -> a.cycles | None -> 0

let total_cycles t = t.total

let share t ~pid =
  if t.total = 0 then 0.0
  else float_of_int (cycles t ~pid) /. float_of_int t.total

let pids t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.table [] |> List.sort compare
