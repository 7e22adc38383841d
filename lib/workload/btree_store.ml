open O2_runtime

let slot_bytes = 16  (* key + value-or-child per slot *)

type node = {
  addr : int;  (* simulated base address; the node's object identity *)
  keys : int array;
  mutable nkeys : int;
  kind : kind;
}

and kind =
  | Leaf of { values : int array; lock : Spinlock.t }
  | Internal of { children : node option array; mutable nchildren : int }

type t = {
  ct : Coretime.t;
  pid : int;
  name : string;
  fanout : int;
  mutable root : node option;
  mutable height_ : int;
  mutable nodes : int;
  mutable leaves : int;
  mutable keys_ : int;
}

let create ct ?(pid = 0) ~name ~fanout () =
  if fanout < 4 then invalid_arg "Btree_store.create: fanout must be >= 4";
  {
    ct;
    pid;
    name;
    fanout;
    root = None;
    height_ = 0;
    nodes = 0;
    leaves = 0;
    keys_ = 0;
  }

let node_bytes t = t.fanout * slot_bytes

let mem t = O2_simcore.Machine.memory (Engine.machine (Coretime.engine t.ct))

let new_node t ~leaf =
  let ext =
    O2_simcore.Memsys.alloc (mem t)
      ~name:(Printf.sprintf "%s.n%d" t.name t.nodes)
      ~size:(node_bytes t)
  in
  let addr = ext.O2_simcore.Memsys.base in
  ignore
    (Coretime.register t.ct ~pid:t.pid ~base:addr ~size:(node_bytes t)
       ~name:(Printf.sprintf "%s.n%d" t.name t.nodes) ());
  t.nodes <- t.nodes + 1;
  if leaf then begin
    t.leaves <- t.leaves + 1;
    {
      addr;
      keys = Array.make t.fanout max_int;
      nkeys = 0;
      kind =
        Leaf
          {
            values = Array.make t.fanout 0;
            lock = Spinlock.create (mem t) ~name:(Printf.sprintf "%s.lock%d" t.name t.nodes);
          };
    }
  end
  else
    {
      addr;
      keys = Array.make t.fanout max_int;
      nkeys = 0;
      kind = Internal { children = Array.make t.fanout None; nchildren = 0 };
    }

(* Bulk load: pack sorted keys into ~70%-full leaves, then build internal
   levels bottom-up; each internal key is the smallest key of the child it
   precedes (B+-tree separators). *)
let bulk_load t ~keys ~value_of =
  if t.root <> None then invalid_arg "Btree_store.bulk_load: already loaded";
  let n = Array.length keys in
  if n = 0 then invalid_arg "Btree_store.bulk_load: empty";
  for i = 1 to n - 1 do
    if keys.(i) <= keys.(i - 1) then
      invalid_arg "Btree_store.bulk_load: keys must be sorted and distinct"
  done;
  let per_leaf = max 2 (t.fanout * 7 / 10) in
  let leaves = ref [] in
  let i = ref 0 in
  while !i < n do
    let leaf = new_node t ~leaf:true in
    let take = min per_leaf (n - !i) in
    (match leaf.kind with
    | Leaf { values; _ } ->
        for j = 0 to take - 1 do
          leaf.keys.(j) <- keys.(!i + j);
          values.(j) <- value_of keys.(!i + j)
        done
    | Internal _ -> assert false);
    leaf.nkeys <- take;
    i := !i + take;
    leaves := leaf :: !leaves
  done;
  let rec build level height =
    match level with
    | [ only ] ->
        t.root <- Some only;
        t.height_ <- height
    | nodes ->
        let per_parent = max 2 (t.fanout * 7 / 10) in
        let parents = ref [] in
        let pending = ref nodes in
        while !pending <> [] do
          let parent = new_node t ~leaf:false in
          (match parent.kind with
          | Internal inner ->
              let rec fill k =
                if k < per_parent && !pending <> [] then begin
                  match !pending with
                  | [] -> ()
                  | child :: rest ->
                      inner.children.(k) <- Some child;
                      inner.nchildren <- k + 1;
                      parent.keys.(k) <- child.keys.(0);
                      parent.nkeys <- k + 1;
                      pending := rest;
                      fill (k + 1)
                end
              in
              fill 0
          | Leaf _ -> assert false);
          parents := parent :: !parents
        done;
        build (List.rev !parents) (height + 1)
  in
  build (List.rev !leaves) 1;
  t.keys_ <- n

(* Binary search for the rightmost child whose separator <= key. *)
let child_index node key =
  let lo = ref 0 and hi = ref (node.nkeys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if node.keys.(mid) <= key then lo := mid else hi := mid - 1
  done;
  !lo

let leaf_slot node key =
  let rec go lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      if node.keys.(mid) = key then Some mid
      else if node.keys.(mid) < key then go (mid + 1) hi
      else go lo (mid - 1)
    end
  in
  go 0 (node.nkeys - 1)

(* Charge the memory a binary search over [steps] probes touches: each
   probe lands on a different line of the node. *)
let charge_search node steps =
  for s = 0 to steps - 1 do
    let probe = s * 61 mod (max node.nkeys 1) in
    ignore (Api.read ~addr:(node.addr + (probe * slot_bytes)) ~len:slot_bytes)
  done;
  Api.compute (4 * steps)

let log2_ceil n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 n

let rec descend t node key =
  match node.kind with
  | Leaf _ -> node
  | Internal inner ->
      charge_search node (log2_ceil (max node.nkeys 2));
      descend t (Option.get inner.children.(child_index node key)) key

let root_exn t =
  match t.root with
  | Some r -> r
  | None -> invalid_arg "Btree_store: bulk_load first"

let lookup t key =
  let leaf = descend t (root_exn t) key in
  Coretime.with_op t.ct leaf.addr (fun () ->
      match leaf.kind with
      | Internal _ -> assert false
      | Leaf { values; lock } ->
          Api.lock lock;
          charge_search leaf (log2_ceil (max leaf.nkeys 2));
          let r =
            ((Option.map (fun i -> values.(i)) (leaf_slot leaf key))
            [@alloc_ok
              "result option under the leaf lock; simulated time does not \
               observe GC"])
          in
          Api.unlock lock;
          r)

let height t = t.height_
let node_count t = t.nodes
let leaf_count t = t.leaves
let key_count t = t.keys_
let mem_bytes t = t.nodes * node_bytes t

let check t =
  match t.root with
  | None -> Error "not loaded"
  | Some root ->
      let problems = ref [] in
      let problem fmt =
        Format.kasprintf (fun s -> problems := s :: !problems) fmt
      in
      let leaves = ref 0 and nodes = ref 0 and keys = ref 0 in
      let rec walk node depth ~lo ~hi =
        incr nodes;
        if node.nkeys <= 0 then problem "empty node at depth %d" depth;
        for i = 1 to node.nkeys - 1 do
          if node.keys.(i) <= node.keys.(i - 1) then
            problem "unsorted keys at depth %d" depth
        done;
        if node.nkeys > 0 then begin
          if node.keys.(0) < lo then problem "key below bound at depth %d" depth;
          if node.keys.(node.nkeys - 1) >= hi then
            problem "key above bound at depth %d" depth
        end;
        match node.kind with
        | Leaf _ ->
            incr leaves;
            keys := !keys + node.nkeys;
            if depth <> t.height_ then
              problem "leaf at depth %d, expected %d" depth t.height_
        | Internal inner ->
            if inner.nchildren <> node.nkeys then
              problem "child/key count mismatch at depth %d" depth;
            for i = 0 to inner.nchildren - 1 do
              let lo' = if i = 0 then lo else node.keys.(i) in
              let hi' = if i = inner.nchildren - 1 then hi else node.keys.(i + 1) in
              match inner.children.(i) with
              | Some child -> walk child (depth + 1) ~lo:lo' ~hi:hi'
              | None -> problem "missing child at depth %d" depth
            done
      in
      walk root 1 ~lo:min_int ~hi:max_int;
      if !leaves <> t.leaves then problem "leaf count %d <> %d" !leaves t.leaves;
      if !nodes <> t.nodes then problem "node count %d <> %d" !nodes t.nodes;
      if !keys <> t.keys_ then problem "key count %d <> %d" !keys t.keys_;
      (match !problems with
      | [] -> Ok ()
      | ps -> Error (String.concat "; " (List.rev ps)))
