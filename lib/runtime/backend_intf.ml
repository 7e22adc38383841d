(** The backend surface a CoreTime workload program is written against.

    The repo has two execution backends for the paper's object/operation
    model: the deterministic simulator (engine + virtual machine +
    CoreTime, the oracle) and the native backend in [lib/native], which
    runs the same model on real OCaml 5 domains. A workload written
    against this signature — via the functors in
    [O2_native.Backend_kv] / [O2_native.Backend_dir] — runs unchanged on
    both, which is what makes the oracle cross-check possible: the same
    program must produce identical logical results and consistent
    counter invariants on either backend.

    The signature is the Api/CoreTime surface with the simulator's
    address arithmetic abstracted away: objects are dense integer
    handles ([register] hands them out), memory traffic is expressed as
    [touch] against an (object, offset) pair, and operations are
    bracketed by [with_op] exactly as [Coretime.with_op] brackets them.
    On the simulator [touch]/[compute] charge virtual cycles through
    {!Api}. On the native backend both are free: they are the
    simulator's price for loads and compares the op body really
    performs, so a native op costs exactly what its body executes.
    [priced] says which kind of backend a program runs on, so that a
    program skips computing and passing a price nobody charges. *)

module type S = sig
  type t

  val name : t -> string
  (** ["sim"] or ["native"] — for reports and error messages. *)

  val priced : bool
  (** Whether [touch] and [compute] charge anything: [true] on the
      simulator, [false] on native. A fixed property of the backend, not
      a setting. A program calls [touch]/[compute] only when it is
      [true], so a native op makes no pricing calls at all and a
      simulated op is charged exactly as before. *)

  val cores : t -> int
  (** Execution lanes: simulated cores, or pool domains. *)

  val probe : t -> Probe.t
  (** The backend's observation hooks. The simulator emits the full
      event stream; the native backend emits only quiescent-point
      monitor events ([Rebalanced]) — see DESIGN.md, "Two backends, one
      API", for exactly what the cross-check does and does not pin. *)

  val register : t -> size:int -> name:string -> int
  (** Declare an object of [size] bytes; returns its dense handle.
      Must be called while the backend is quiescent (before [run], or
      between a completed [run] and the next spawn). *)

  val objects : t -> int
  (** Handles issued so far; valid handles are [0 .. objects - 1]. *)

  val spawn : t -> core:int -> name:string -> (unit -> unit) -> unit
  (** Queue a client body on a lane. Bodies run when [run] drives the
      backend; they may be scheduled elsewhere by the backend (the
      native pool steals idle-lane work). *)

  val with_op :
    t -> ?write:bool -> int -> ('e -> 'x -> 'y -> 'a) -> 'e -> 'x -> 'y -> 'a
  (** [with_op t ?write obj f e x y] brackets one operation on an object
      handle, from inside a spawned body, and runs [f e x y] inside it;
      [write] (default [false]) says whether the op mutates the object.

      The body is closed: a program passes a function defined once, not
      one built per op, and hands it the op's state and arguments as
      [e], [x] and [y]. So bracketing an op builds no closure, and a
      native op allocates nothing. A closure per op kept filling the
      minor heap, and on OCaml 5 every minor collection stops all
      domains.

      Where the op runs is the backend's policy. The simulator runs it
      where CoreTime puts it: on the object's assigned core by thread
      migration or shipping, or in place for unassigned or replicated
      objects. The native backend runs reads of an object never written
      in place, on the submitting domain. The first write homes the
      object, and every op after it ships to the home (the continuation
      is enqueued on the home domain). Both count the op where it
      ran.

      Liveness: on native, a first write waits until every other domain
      starts an op, returns to its worker loop or parks. So a client
      that waits on another client must do it through ops or
      [Api.yield], never by spinning between ops. *)

  val touch : t -> write:bool -> obj:int -> off:int -> len:int -> unit
  (** The cost of touching [len] bytes at [off] inside an object:
      charged cycles on the simulator, free on native (the loads and
      stores the body performs on its host-side data are the real
      cost). *)

  val compute : t -> int -> unit
  (** [cycles] of non-memory work, such as the compares of a probe the
      body has just run: charged cycles on the simulator, free on
      native (the body's own instructions are the real cost). *)

  val run : t -> unit
  (** Drive every spawned body to completion and quiesce. *)

  (* The counter surface the oracle compares. All of these are stable
     only while the backend is quiescent. *)

  val ops_completed : t -> int
  (** Operations bracketed by [with_op] that ran to completion. *)

  val object_ops : t -> int -> int
  (** Completed operations attributed to one object handle. *)

  val ships : t -> int * int
  (** [(out, in_)]: operations that left their submitting lane for the
      object's home, and operations that arrived by shipping. Both
      backends must keep these balanced ([out = in_] at quiescence). *)

  val migrations : t -> int
  (** Object home reassignments made by the backend's monitor. *)
end
