open O2_runtime

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    hists = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr ?(by = 1) t name =
  let r = counter t name in
  r := !r + by

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists name h;
      h

let observe t name v = Hist.add (hist t name) v

let sorted tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = sorted t.counters ( ! )
let gauges t = sorted t.gauges ( ! )
let hists t = sorted t.hists Fun.id
