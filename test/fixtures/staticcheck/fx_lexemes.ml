(* Tricky-lexeme fixture: unit-typed ignores spelled inside comments,
   strings, quoted strings and char literals are not code; the two real
   ones, after a double-quote char literal and after a quoted string,
   are. Ignores of non-unit values (a read's cost, a primed name) are
   fine. The suite expects exactly the two real findings. *)

open O2_runtime

(* ignore (Api.lock l) in a comment,
   spanning lines: ignore (Engine.run e) *)
let in_string = "ignore (Api.lock l)"
let in_quoted = {|ignore (Api.lock l) " '|}
let in_delimited = {foo||} ignore (Api.lock l) |foo}
let escapes = ('\n', '\\', "\"ignore (Api.lock l)\"")
let after_char l = let q = '"' in ignore (Api.lock l); q
let after_quoted l = let s = {|text|} in ignore (Api.lock l); s
let read_cost ~addr ~len = ignore (Api.read ~addr ~len)
let primed (x' : 'a) = ignore x'
