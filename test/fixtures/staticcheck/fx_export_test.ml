(* The test user of the export fixture. *)

let t =
  Fx_export.tested 1 + Fx_export.hidden_tested 1
  + Fx_export.hidden_no_reason 1
