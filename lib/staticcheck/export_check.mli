(** Unused-export pass. The exports are the top-level [val]s of each
    library interface (and those of a top-level functor's result
    signature); the uses are the resolved value paths of every
    implementation handed in, through [open], local module aliases and
    [module K = F (M)]. A module passed as a functor argument or packed
    as a first-class module uses every value its interface exports.

    Each export falls in one class: no user, used only inside its own
    module, used only by [test/] sources, or real users. The first three
    are findings (pass ["export"]: [unused-export], [private-export],
    [test-only-export]), except a test-only value after the odoc
    [(**/**)] marker whose doc comment says why a test needs it. *)

type counts = {
  values : int;  (** exported values *)
  no_user : int;
  own_module : int;
  test_only : int;  (** including the deliberate ones after [(**/**)] *)
  real_users : int;
  unresolved : int;
      (** value paths through a module the pass cannot follow (a functor
          parameter, an unpacked first-class module); never a finding *)
}

val check :
  Cmt_load.interface_info list ->
  Cmt_load.module_info list ->
  counts * Finding.t list
