(** Typedtree-based static analysis over the repo's own .cmt files.

    Three semantic passes (allocation and polymorphic comparison on the
    hot-path manifest, effect-freedom of observability listeners,
    spinlock discipline), the raw-primitive allowlist and the
    ignored-result idiom, all running on
    dune's typed trees instead of source text; the unused-export pass
    over every library interface and every user of it; plus one file
    check, [missing-mli], over the library sources. *)

type report = {
  findings : Finding.t list;
  modules_scanned : int;
  manifest_functions : int;
  listeners_checked : int;
  exports : Export_check.counts;
}

val run :
  ?build_dir:string ->
  ?manifest:Manifest.entry list ->
  ?allowlist:string list ->
  root:string ->
  unit ->
  (report, string) result
(** Discover .cmt files under a build tree rooted at [root] (or
    [build_dir]), run the typedtree passes over its [lib/] modules and
    the export pass over all of it, then flag every [root/lib] module
    without an [.mli] ([*_intf.ml] files are exempt). [Error] when no
    cmts are found. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string

(**/**)

val run_on_modules :
  ?manifest:Manifest.entry list ->
  ?allowlist:string list ->
  Cmt_load.module_info list ->
  report
(** For tests: every typedtree pass over fixture modules.
    Run every typedtree pass over an explicit module list (used by the
    test fixtures). The export pass does not run: its counts are zero. *)
