let entry_bytes = 32 (* Fat_types.entry_bytes: one 8.3 directory entry *)

(* A top-level loop, so a probe allocates no closure. The annotation
   keeps the compare and the load specialised to ints. *)
let rec scan_from (entries : int array) ~(key : int) i =
  if i >= Array.length entries then -1
  else if entries.(i) = key then i
  else scan_from entries ~key (i + 1)

module Make (B : O2_runtime.Backend_intf.S) = struct
  type dir = { obj : int; entries : int array }

  type t = { b : B.t; dir_arr : dir array; compare_cycles : int }

  let create b ~name ~dirs ~entries_per_dir ?(compare_cycles = 2) () =
    if dirs <= 0 || entries_per_dir <= 0 then
      invalid_arg "Backend_dir.create: dirs and entries must be positive";
    let make_dir i =
      {
        obj =
          B.register b
            ~size:(entries_per_dir * entry_bytes)
            ~name:(Printf.sprintf "%s.d%d" name i);
        (* Entries stored shuffled-free: key k at slot k, like a freshly
           populated FAT directory — the probe depth is the key. *)
        entries = Array.init entries_per_dir (fun k -> k);
      }
    in
    { b; dir_arr = Array.init dirs make_dir; compare_cycles }

  let dirs t = Array.length t.dir_arr
  let dir_obj t i = t.dir_arr.(i).obj

  let scan d ~key = scan_from d.entries ~key 0

  let lookup t ~dir ~key =
    let d = t.dir_arr.(dir) in
    B.with_op t.b d.obj (fun () ->
        let i = scan d ~key in
        let probed = if i >= 0 then i + 1 else Array.length d.entries in
        B.touch t.b ~write:false ~obj:d.obj ~off:0 ~len:(probed * entry_bytes);
        B.compute t.b (t.compare_cycles * Int.max probed 1);
        i)
end
