(** Lock-discipline pass.

    Computes the set of possible spinlock depths through every function
    body: [Api.lock]/[Api.unlock] must balance on all normal exits, loop
    bodies must preserve depth, and while a lock may be held neither
    blocking calls (yield, migration, [Engine.run], real [Mutex]/
    [Condition]/[Unix] waits) nor allocating constructs are permitted.
    Simulated memory traffic ([Api.read]/[write]/[compute]) under a lock
    is allowed by design. [@alloc_ok] silences only the
    allocation-under-lock judgement, never depth tracking. *)

val check : Cmt_load.module_info list -> Finding.t list

(**/**)

val check_module : Cmt_load.module_info -> Finding.t list
(** For tests: the fixtures run one pass on one module. *)
