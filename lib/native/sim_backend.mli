(** The simulator as a {!O2_runtime.Backend_intf.S} backend — the oracle
    side of the cross-check.

    Wraps a serial {!O2_runtime.Engine} + {!Coretime} instance behind
    the backend signature: [register] allocates a simulated extent and
    registers it with CoreTime, [with_op] is [Coretime.with_op] on the
    extent's base address, [touch]/[compute] charge virtual cycles
    through {!O2_runtime.Api} ([priced] is [true]), and [run] drives
    the event loop until the spawned clients finish. Per-object op
    counts are reconstructed from the probe's [Op_started] stream, which
    the backend subscribes to at creation.

    [Coretime.with_op] brackets a thunk, so [with_op] wraps the closed
    body and its arguments in one. That closure is host allocation,
    which the simulator does not price: no simulated cycle moves. *)

type t

val create : ?cfg:O2_simcore.Config.t -> unit -> t
(** [cfg] defaults to {!O2_simcore.Config.amd16}. CoreTime runs with
    {!Coretime.Policy.default}, monitor included. *)

val engine : t -> O2_runtime.Engine.t
val coretime : t -> Coretime.t

(** The {!O2_runtime.Backend_intf.S} surface. *)

val name : t -> string

val priced : bool
(** [true]: [touch] and [compute] charge virtual cycles, so the backend
    programs call them after every op body. *)

val cores : t -> int
val probe : t -> O2_runtime.Probe.t
val register : t -> size:int -> name:string -> int
val objects : t -> int
val spawn : t -> core:int -> name:string -> (unit -> unit) -> unit
val with_op :
  t -> ?write:bool -> int -> ('e -> 'x -> 'y -> 'a) -> 'e -> 'x -> 'y -> 'a
val touch : t -> write:bool -> obj:int -> off:int -> len:int -> unit
val compute : t -> int -> unit
val run : t -> unit
val ops_completed : t -> int
val object_ops : t -> int -> int
val ships : t -> int * int
val migrations : t -> int
