let entries_per_cluster img =
  Fat_image.cluster_bytes img / Fat_types.entry_bytes

(* Scan one cluster, comparing the 8.3 name bytes in place — no decoded
   entry record, no allocation per live slot. The packed result is:
   the matching slot index (>= 0) on a hit; [-1] when the cluster was
   exhausted without a hit; [-(2 + slot)] when the end-of-directory marker
   sits at [slot]. The loop is a top-level recursion: a [let rec ... in]
   closure would be heap-allocated per scan without flambda. *)
let rec scan_slots buf base per name83 i =
  if i >= per then -1
  else begin
    let off = base + (i * Fat_types.entry_bytes) in
    if Fat_types.is_end buf ~off then -(2 + i)
    else if
      (not (Fat_types.is_deleted buf ~off))
      && Fat_types.name_matches buf ~off name83
    then i
    else scan_slots buf base per name83 (i + 1)
  end

let scan_cluster img cluster ~name83 =
  scan_slots (Fat_image.buf img)
    (Fat_image.cluster_off img cluster)
    (entries_per_cluster img) name83 0

let decode_at img cluster slot =
  Fat_types.decode_entry (Fat_image.buf img)
    ~off:(Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes))

(* Walks follow the chain one FAT cell at a time ([Fat_image.next_cluster])
   instead of materialising the whole chain as a list; [steps] bounds the
   walk so a cyclic chain in a corrupt image still terminates. *)

let rec find_walk img name83 total cluster steps =
  if steps > total then failwith "Fat_dir.find: cycle in cluster chain"
  else begin
    let r = scan_cluster img cluster ~name83 in
    if r >= 0 then Some (decode_at img cluster r)
    else if r = -1 then begin
      let next = Fat_image.next_cluster img cluster in
      if next < 0 then None else find_walk img name83 total next (steps + 1)
    end
    else None (* end-of-directory marker *)
  end

let find img ~head ~name83 =
  find_walk img name83 (Fat_image.total_clusters img) head 0

let lookup_sim img ~head ~name83 ~compare_cycles =
  let open O2_runtime in
  let per = entries_per_cluster img in
  let charge cluster slots =
    ignore
      (Api.read
         ~addr:(Fat_image.cluster_addr img cluster)
         ~len:(slots * Fat_types.entry_bytes));
    Api.compute (slots * compare_cycles)
  in
  let total = Fat_image.total_clusters img in
  let rec walk cluster steps =
    if steps > total then failwith "Fat_dir.lookup_sim: cycle in cluster chain"
    else begin
      let r = scan_cluster img cluster ~name83 in
      if r >= 0 then begin
        charge cluster (r + 1);
        Some (decode_at img cluster r)
      end
      else if r = -1 then begin
        charge cluster per;
        let next = Fat_image.next_cluster img cluster in
        if next < 0 then None
        else begin
          (* Moving to the next cluster reads this one's FAT cell. *)
          ignore (Api.read ~addr:(Fat_image.fat_entry_addr img cluster) ~len:2);
          walk next (steps + 1)
        end
      end
      else begin
        (* end marker at slot [-(r + 2)]: examined slots up to and
           including it *)
        charge cluster (-r - 1);
        None
      end
    end
  in
  walk head 0

let zero_cluster img cluster =
  Bytes.fill (Fat_image.buf img)
    (Fat_image.cluster_off img cluster)
    (Fat_image.cluster_bytes img) '\x00'

let add img ~head entry =
  if find img ~head ~name83:entry.Fat_types.name <> None then
    Error (Printf.sprintf "duplicate entry %S" entry.Fat_types.name)
  else begin
    let buf = Fat_image.buf img in
    let per = entries_per_cluster img in
    let write_at cluster slot =
      Fat_types.encode_entry entry buf
        ~off:(Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes));
      Ok ()
    in
    (* First free slot: a deleted entry or the end marker. Writing over the
       end marker is safe because the rest of the cluster is zero. *)
    let rec scan_chain = function
      | [] -> assert false
      | [ last ] -> (
          match free_slot last with
          | Some slot -> write_at last slot
          | None -> (
              match Fat_image.alloc_cluster img ~prev:(Some last) with
              | None -> Error "volume full"
              | Some fresh ->
                  zero_cluster img fresh;
                  write_at fresh 0))
      | cluster :: rest -> (
          match free_slot cluster with
          | Some slot -> write_at cluster slot
          | None -> scan_chain rest)
    and free_slot cluster =
      let base = Fat_image.cluster_off img cluster in
      let rec go i =
        if i >= per then None
        else begin
          let off = base + (i * Fat_types.entry_bytes) in
          if Fat_types.is_end buf ~off || Fat_types.is_deleted buf ~off then
            Some i
          else go (i + 1)
        end
      in
      go 0
    in
    scan_chain (Fat_image.chain img head)
  end

(* The append point of a chain: its last cluster, reached one FAT cell at
   a time, and the slot of the end marker there ([per] when full). *)
let rec last_cluster img total cluster steps =
  if steps > total then failwith "Fat_dir.append_bulk: cycle in cluster chain"
  else begin
    let next = Fat_image.next_cluster img cluster in
    if next < 0 then cluster else last_cluster img total next (steps + 1)
  end

let rec end_slot buf base per i =
  if i >= per || Fat_types.is_end buf ~off:(base + (i * Fat_types.entry_bytes))
  then i
  else end_slot buf base per (i + 1)

(* Copy [run] from byte [src] on: one blit fills the rest of [cluster]
   from [slot], and each fresh cluster is linked after it. *)
let rec append_run img run src cluster slot =
  let len = Bytes.length run in
  let per = entries_per_cluster img in
  if src >= len then Ok ()
  else if slot >= per then begin
    match Fat_image.alloc_cluster img ~prev:(Some cluster) with
    | None -> Error "volume full"
    | Some fresh ->
        zero_cluster img fresh;
        append_run img run src fresh 0
  end
  else begin
    let n = Int.min (len - src) ((per - slot) * Fat_types.entry_bytes) in
    Bytes.blit run src (Fat_image.buf img)
      (Fat_image.cluster_off img cluster + (slot * Fat_types.entry_bytes))
      n;
    (* either the run is done or this cluster is now full *)
    append_run img run (src + n) cluster per
  end

let append_bulk img ~head run =
  if Bytes.length run mod Fat_types.entry_bytes <> 0 then
    invalid_arg "Fat_dir.append_bulk: run is not whole entries";
  let last = last_cluster img (Fat_image.total_clusters img) head 0 in
  let slot =
    end_slot (Fat_image.buf img)
      (Fat_image.cluster_off img last)
      (entries_per_cluster img) 0
  in
  append_run img run 0 last slot

let remove img ~head ~name83 =
  let buf = Fat_image.buf img in
  let per = entries_per_cluster img in
  let rec walk = function
    | [] -> false
    | cluster :: rest ->
        let base = Fat_image.cluster_off img cluster in
        let rec go i =
          if i >= per then walk rest
          else begin
            let off = base + (i * Fat_types.entry_bytes) in
            if Fat_types.is_end buf ~off then false
            else if
              (not (Fat_types.is_deleted buf ~off))
              && Fat_types.name_matches buf ~off name83
            then begin
              Bytes.set buf off Fat_types.deleted_marker;
              true
            end
            else go (i + 1)
          end
        in
        go 0
  in
  walk (Fat_image.chain img head)

let list img ~head =
  let buf = Fat_image.buf img in
  let per = entries_per_cluster img in
  let rec walk acc = function
    | [] -> List.rev acc
    | cluster :: rest ->
        let base = Fat_image.cluster_off img cluster in
        let rec go acc i =
          if i >= per then walk acc rest
          else begin
            let off = base + (i * Fat_types.entry_bytes) in
            if Fat_types.is_end buf ~off then List.rev acc
            else if Fat_types.is_deleted buf ~off then go acc (i + 1)
            else go (Fat_types.decode_entry buf ~off :: acc) (i + 1)
          end
        in
        go acc 0
  in
  walk [] (Fat_image.chain img head)

let count img ~head = List.length (list img ~head)
