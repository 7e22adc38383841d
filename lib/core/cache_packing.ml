type item = { key : int; bytes : int; heat : float }

let pack ~budget ~used ~items =
  let used = Array.copy used in
  let n = Array.length used in
  (* Stable sort keeps registration order for equal heat, which makes runs
     reproducible. *)
  let sorted =
    List.stable_sort (fun a b -> compare b.heat a.heat) items
  in
  let placed = ref [] and unplaced = ref [] in
  List.iter
    (fun it ->
      let rec fit c =
        if c >= n then None
        else if used.(c) + it.bytes <= budget then Some c
        else fit (c + 1)
      in
      match fit 0 with
      | Some c ->
          used.(c) <- used.(c) + it.bytes;
          placed := (it, c) :: !placed
      | None -> unplaced := it :: !unplaced)
    sorted;
  (List.rev !placed, List.rev !unplaced)

(* Stateless deterministic hash for Random_fit: mixing (seed, nonce) keeps
   distinct policies independent while leaving no state behind. A module-
   level PRNG table would be shared mutable state — experiment cells now
   run on separate domains, and a shared call counter would make a cell's
   placements depend on what other cells ran before it. *)
let next_random seed nonce bound =
  let z = (seed lxor 0x9E3779B9) + (nonce * 0x9E3779B9) land max_int in
  let z = z lxor (z lsr 16) * 0x45d9f3b land max_int in
  let z = z lxor (z lsr 16) * 0x45d9f3b land max_int in
  let z = z lxor (z lsr 16) in
  z mod bound

let place_one ?(nonce = 0) ~placement ~budget ~used ~bytes () =
  let n = Array.length used in
  let fits c = used.(c) + bytes <= budget in
  match placement with
  | Policy.First_fit ->
      let rec go c = if c >= n then None else if fits c then Some c else go (c + 1) in
      go 0
  | Policy.Least_loaded ->
      let best = ref None in
      for c = 0 to n - 1 do
        if fits c then
          match !best with
          | Some b when used.(b) <= used.(c) -> ()  (* lowest id wins ties *)
          | _ -> best := Some c
      done;
      !best
  | Policy.Random_fit seed ->
      let candidates = ref [] in
      for c = n - 1 downto 0 do
        if fits c then candidates := c :: !candidates
      done;
      let cands = Array.of_list !candidates in
      if Array.length cands = 0 then None
      else Some cands.(next_random seed nonce (Array.length cands))

(* Size of the candidate set a placement chose from — recorded in the
   promotion's provenance. Allocation-free: runs on every promotion when a
   decision subscriber is attached. *)
let count_fits ~budget ~used ~bytes =
  let n = Array.length used in
  let rec go c acc =
    if c >= n then acc
    else go (c + 1) (if used.(c) + bytes <= budget then acc + 1 else acc)
  in
  go 0 0
