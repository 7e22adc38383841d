(* Starting in [`High], flip the phase every [period] cycles (calls
   [on_phase] at each flip, not at time 0). *)
let square_wave engine ~period ~on_phase =
  if period <= 0 then invalid_arg "Phase.square_wave: period must be positive";
  let phase = ref `High in
  O2_runtime.Engine.every engine ~period (fun ~now:_ ->
      phase := (match !phase with `High -> `Low | `Low -> `High);
      on_phase !phase)

let oscillate_active engine w ~period ~divisor =
  if divisor <= 0 then invalid_arg "Phase.oscillate_active: divisor";
  let full = Dir_workload.spec w |> fun s -> s.Dir_workload.dirs in
  square_wave engine ~period ~on_phase:(function
    | `High -> Dir_workload.set_active w full
    | `Low -> Dir_workload.set_active w (max 1 (full / divisor)))
