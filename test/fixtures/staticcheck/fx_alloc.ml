(* Allocation-pass fixture: suite_staticcheck points a manifest at these
   functions and asserts one finding per allocating construct, none for
   the annotated or clean cases, and a manifest-missing diagnostic for a
   function the manifest names but this module does not define. *)

(* alloc-tuple *)
let boxed_pair x y = (x, y)

(* alloc-construct *)
let consing x xs = x :: xs

(* alloc-closure: the result captures [n] *)
let closure_maker n =
  let f () = n + 1 in
  f

(* suppressed by the escape hatch: no finding *)
let annotated n = ((ref n) [@alloc_ok "fixture: deliberate cell"])

(* allocation-free: no finding *)
let clean a i = Array.unsafe_get a i + i

(* alloc-extcall: a C external without [@@noalloc] may allocate (this
   one, Bytes.create's primitive, does) *)
external create_bytes : int -> bytes = "caml_create_bytes"

let extcall n = create_bytes n

(* a [@@noalloc] C external (the runtime's clock stub): no finding *)
external clock_ns : unit -> (int[@untagged])
  = "o2_runtime_now_ns_byte" "o2_runtime_now_ns"
[@@noalloc]

let noalloc_extcall () = clock_ns () + 1

(* Functor bodies are checked too. [functor_clean] calls a sibling in
   the functor: its own closure is built once per application, not per
   call, so no finding. [functor_closure] builds a closure per call that
   captures [i]: alloc-closure. *)
module Over (X : sig
  val base : int
end) =
struct
  let offset i = i + X.base
  let functor_clean a i = Array.unsafe_get a (offset i)

  let functor_closure i =
    let f () = offset i in
    f
end
