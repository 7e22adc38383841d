(** Effect-freedom pass for observability listeners.

    Listeners registered with [Probe.subscribe] or [Machine.observe] must
    not call the runtime API, schedule engine work, re-emit probe events,
    perform I/O, raise, or mutate state that is not reachable from their
    own parameters. Same-module top-level helpers are resolved
    transitively. *)

val listeners : Cmt_load.module_info -> (string * Typedtree.expression) list
(** Registered listeners found in a module, with a human-readable origin
    label per registration site. *)

val check : Cmt_load.module_info list -> Finding.t list
(** Check all [lib/obs/] modules in the tree. *)

(**/**)

val check_module : Cmt_load.module_info -> Finding.t list
(** For tests: the fixtures run one pass on one module.
    Check every listener registered anywhere in one module. *)
