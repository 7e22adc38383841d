(** Allocation pass over the hot-path manifest.

    Flags boxed constructors, tuples, records, array literals, lazy
    suspensions, non-constant closures, partial applications, [ref]
    cells, known-allocating stdlib calls, calls to C externals not
    declared [@@noalloc] ([alloc-extcall]), and tail-position float
    boxing inside manifest functions. Raising applications are skipped;
    [@alloc_ok "reason"] on an expression or binding suppresses the
    subtree.

    The same walk reports [poly-compare] for every use of [Stdlib.min],
    [Stdlib.max] and [Stdlib.compare]: without flambda these run the
    generic structural comparison even on ints. [Int.max], [Int.min] and
    int-typed comparison operators are not flagged, and [@alloc_ok] does
    not suppress the finding. *)

val check :
  ?manifest:Manifest.entry list -> Cmt_load.module_info list -> Finding.t list

(**/**)

val check_module :
  ?manifest:Manifest.entry list -> Cmt_load.module_info -> Finding.t list
(** For tests: the fixtures run one pass on one module. *)
