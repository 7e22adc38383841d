(* Ignored-result fixture: three ignores of a unit expression, one per
   application form, and one legitimate ignore of a thread handle. The
   suite expects exactly three findings. *)

open O2_runtime

(* ocamlformat's layout for a long call: [ignore] ends one line and its
   argument starts the next *)
let run_long_layout engine =
  ignore
    (Engine.run ~until:1_000_000 ~stop_when:(fun () -> false) engine)

let run_piped engine = Engine.run engine |> ignore
let lock_at_at l = ignore @@ Api.lock l

let spawn_handle engine =
  ignore (Engine.spawn engine ~core:0 ~name:"w" (fun () -> ()))
