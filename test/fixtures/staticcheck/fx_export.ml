let unused x = x
let private_ x = x + 1
let tested x = x + 2
let used x = private_ x
let via_open x = x + 3
let via_alias x = x + 4

module Make (X : sig
  val seed : int
end) =
struct
  let via_apply = X.seed
end

let hidden_tested x = x + 5
let hidden_no_reason x = x + 6
