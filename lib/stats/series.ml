type point = { x : float; y : float }
type t = { label : string; points : point list }

let make ~label pts =
  {
    label;
    points =
      List.map (fun (x, y) -> { x; y }) pts
      |> List.sort (fun a b -> compare a.x b.x);
  }

let xs t = List.map (fun p -> p.x) t.points

let y_at t x =
  List.find_map (fun p -> if p.x = x then Some p.y else None) t.points

let shared_points a b =
  List.filter_map
    (fun p ->
      match y_at b p.x with Some yb -> Some (p.x, p.y, yb) | None -> None)
    a.points

let ratio ~num ~den =
  let pts =
    List.filter_map
      (fun (x, yn, yd) -> if yd = 0.0 then None else Some (x, yn /. yd))
      (shared_points num den)
  in
  make ~label:(num.label ^ "/" ^ den.label) pts

let crossover ~a ~b =
  let shared = shared_points a b in
  let sign v = compare v 0.0 in
  let rec go prev = function
    | [] -> None
    | (x, ya, yb) :: rest ->
        let s = sign (ya -. yb) in
        if s <> 0 && prev <> 0 && s <> prev then Some x
        else go (if s = 0 then prev else s) rest
  in
  go 0 shared
