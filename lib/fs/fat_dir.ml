let entries_per_cluster img =
  Fat_image.cluster_bytes img / Fat_types.entry_bytes

(* The scan kernel. The 11-byte 8.3 name is split once per cluster into
   a 4-byte, a 4-byte, a 2-byte and a 1-byte int; per slot the loop
   tests the end byte, then compares the first 32-bit word, and compares
   the rest only when that word matches. A deleted slot keeps its name
   bytes behind the 0xE5 marker, so the deleted test is needed only
   after a match. One range check per cluster (in [scan_cluster]) covers
   every unchecked load below. [get32u] reads native-endian, which is
   fine: the name words are read the same way. The packed result is the
   matching slot index (>= 0) on a hit; [-1] when the cluster was
   exhausted without a hit; [-(2 + slot)] when the end-of-directory
   marker sits at [slot]. The loop is a top-level recursion: a
   [let rec ... in] closure would be heap-allocated per scan without
   flambda. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external name32 : string -> int -> int32 = "%caml_string_get32"
external name16 : string -> int -> int = "%caml_string_get16"

(* No 32-bit word reads as this, so a name that is not 11 bytes long
   matches no slot. *)
let no_word = 1 lsl 40

let rec scan_slots buf off per w0 w1 w2 b10 i =
  if i >= per then -1
  else if Bytes.unsafe_get buf off = Fat_types.end_marker then -(2 + i)
  else if
    Int32.to_int (get32u buf off) = w0
    && Int32.to_int (get32u buf (off + 4)) = w1
    && get16u buf (off + 8) = w2
    && Char.code (Bytes.unsafe_get buf (off + 10)) = b10
    && Bytes.unsafe_get buf off <> Fat_types.deleted_marker
  then i
  else scan_slots buf (off + Fat_types.entry_bytes) per w0 w1 w2 b10 (i + 1)

let scan_cluster img cluster ~name83 =
  let buf = Fat_image.buf img in
  let base = Fat_image.cluster_off img cluster in
  let per = entries_per_cluster img in
  if base < 0 || base + (per * Fat_types.entry_bytes) > Bytes.length buf then
    invalid_arg "Fat_dir.scan_cluster: cluster outside the image";
  if String.length name83 = 11 then
    scan_slots buf base per
      (Int32.to_int (name32 name83 0))
      (Int32.to_int (name32 name83 4))
      (name16 name83 8)
      (Char.code (String.unsafe_get name83 10))
      0
  else scan_slots buf base per no_word 0 0 0 0

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
  let rec walk = function
    | [] -> false
    | cluster :: rest ->
        let r = scan_cluster img cluster ~name83 in
        if r >= 0 then begin
          Bytes.set (Fat_image.buf img)
            (Fat_image.cluster_off img cluster + (r * Fat_types.entry_bytes))
            Fat_types.deleted_marker;
          true
        end
        else if r = -1 then walk rest
        else false
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
