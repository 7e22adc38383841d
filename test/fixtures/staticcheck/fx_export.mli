(* Unused-export fixture: one value per class of the export pass, and
   one real-user value per way the pass must follow a use. The users are
   fx_export_user.ml (counted as real code) and fx_export_test.ml (test
   code). After (**/**), one test value has the "For tests" doc comment
   that makes it deliberate and one has an ordinary doc comment. *)

val unused : int -> int
val private_ : int -> int
val tested : int -> int
val used : int -> int
val via_open : int -> int
val via_alias : int -> int

module Make (X : sig
  val seed : int
end) : sig
  val via_apply : int
end

(**/**)

val hidden_tested : int -> int
(** For tests: a value the test user reaches on purpose. *)

val hidden_no_reason : int -> int
(** Adds six to its argument: API documentation, not a reason a test needs it. *)
