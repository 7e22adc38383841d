type state = Runnable | Spinning | Migrating | Finished

(* An open slot for scheduler layers (CoreTime) to hang per-thread state
   off the thread itself. *)
type ctx = ..
type ctx += No_ctx

type t = {
  id : int;
  name : string;
  origin_core : int;
  mutable core : int;
  mutable state : state;
  mutable migrations : int;
  mutable ctx : ctx;
}

let make ~id ~name ~core =
  {
    id;
    name;
    origin_core = core;
    core;
    state = Runnable;
    migrations = 0;
    ctx = No_ctx;
  }

let state_to_string = function
  | Runnable -> "runnable"
  | Spinning -> "spinning"
  | Migrating -> "migrating"
  | Finished -> "finished"

let pp ppf t =
  Format.fprintf ppf "thread %d (%s) on core %d [%s, %d migrations]" t.id
    t.name t.core (state_to_string t.state) t.migrations
