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

let name_matches buf off w0 w1 w2 b10 =
  Int32.to_int (get32u buf off) = w0
  && Int32.to_int (get32u buf (off + 4)) = w1
  && get16u buf (off + 8) = w2
  && Char.code (Bytes.unsafe_get buf (off + 10)) = b10

let rec scan_slots buf off per w0 w1 w2 b10 i =
  if i >= per then -1
  else if Bytes.unsafe_get buf off = Fat_types.end_marker then -(2 + i)
  else if
    name_matches buf off w0 w1 w2 b10
    && Bytes.unsafe_get buf off <> Fat_types.deleted_marker
  then i
  else scan_slots buf (off + Fat_types.entry_bytes) per w0 w1 w2 b10 (i + 1)

(* Every kernel reads whole slots of one cluster block from offset 0. *)
let checked_block img cluster =
  let block = Fat_image.cluster_block img cluster in
  if entries_per_cluster img * Fat_types.entry_bytes > Bytes.length block then
    invalid_arg "Fat_dir: cluster block shorter than its slots";
  block

let scan_cluster img cluster ~name83 =
  let block = checked_block img cluster in
  let per = entries_per_cluster img in
  if String.length name83 = 11 then
    scan_slots block 0 per
      (Int32.to_int (name32 name83 0))
      (Int32.to_int (name32 name83 4))
      (name16 name83 8)
      (Char.code (String.unsafe_get name83 10))
      0
  else scan_slots block 0 per no_word 0 0 0 0

let decode_at img cluster slot =
  Fat_types.decode_entry
    (Fat_image.cluster_block img cluster)
    ~off:(slot * Fat_types.entry_bytes)

(* A (cluster, slot) pair packed into one int, so the walks below return
   without allocating. Clusters fit in 16 bits, slots in 32. *)
let slot_bits = 32
let pack cluster slot = (cluster lsl slot_bits) lor slot
let packed_cluster p = p lsr slot_bits
let packed_slot p = p land ((1 lsl slot_bits) - 1)

(* Walks follow the chain one FAT cell at a time ([Fat_image.next_cluster])
   instead of materialising the whole chain as a list; [steps] bounds the
   walk so a cyclic chain in a corrupt image still terminates. [locate]
   gives the packed position of a live entry, or -1. *)

let rec locate img name83 total cluster steps =
  if steps > total then failwith "Fat_dir: cycle in cluster chain"
  else begin
    let r = scan_cluster img cluster ~name83 in
    if r >= 0 then pack cluster r
    else if r = -1 then begin
      let next = Fat_image.next_cluster img cluster in
      if next < 0 then -1 else locate img name83 total next (steps + 1)
    end
    else -1 (* end-of-directory marker *)
  end

let find img ~head ~name83 =
  let p = locate img name83 (Fat_image.total_clusters img) head 0 in
  if p < 0 then None
  else
    (Some (decode_at img (packed_cluster p) (packed_slot p))
    [@alloc_ok "the entry found is the result"])

(* The simulated scan: [charge] bills the slots examined in one cluster
   (the bytes read plus the per-entry compare), and [lookup_walk] is the
   same walk as [locate] with those charges and one FAT-cell read per
   cluster boundary. Both are top-level, so a lookup allocates only the
   effects it performs and the entry it returns. *)
let charge img compare_cycles cluster slots =
  ignore
    (O2_runtime.Api.read
       ~addr:(Fat_image.cluster_addr img cluster)
       ~len:(slots * Fat_types.entry_bytes));
  O2_runtime.Api.compute (slots * compare_cycles)

let rec lookup_walk img name83 compare_cycles per total cluster steps =
  if steps > total then failwith "Fat_dir.lookup_sim: cycle in cluster chain"
  else begin
    let r = scan_cluster img cluster ~name83 in
    if r >= 0 then begin
      charge img compare_cycles cluster (r + 1);
      (Some (decode_at img cluster r)
      [@alloc_ok "the entry found is the result"])
    end
    else if r = -1 then begin
      charge img compare_cycles cluster per;
      let next = Fat_image.next_cluster img cluster in
      if next < 0 then None
      else begin
        (* Moving to the next cluster reads this one's FAT cell. *)
        ignore
          (O2_runtime.Api.read ~addr:(Fat_image.fat_entry_addr img cluster)
             ~len:2);
        lookup_walk img name83 compare_cycles per total next (steps + 1)
      end
    end
    else begin
      (* end marker at slot [-(r + 2)]: examined slots up to and
         including it *)
      charge img compare_cycles cluster (-r - 1);
      None
    end
  end

let lookup_sim img ~head ~name83 ~compare_cycles =
  lookup_walk img name83 compare_cycles (entries_per_cluster img)
    (Fat_image.total_clusters img)
    head 0

(* One cluster of [add]'s walk. [free] is the first deleted slot seen in
   this cluster ([per] while there is none). The result is -1 on a live
   slot named like the new entry, else the cluster's first free slot
   ([per] when none) shifted left once, with bit 0 set when the
   end-of-directory marker was reached: no later slot is live. *)
let rec add_slots buf off per w0 w1 w2 b10 free i =
  if i >= per then free lsl 1
  else begin
    let c = Bytes.unsafe_get buf off in
    if c = Fat_types.end_marker then (Int.min free i lsl 1) lor 1
    else if c = Fat_types.deleted_marker then
      add_slots buf (off + Fat_types.entry_bytes) per w0 w1 w2 b10
        (if free = per then i else free)
        (i + 1)
    else if name_matches buf off w0 w1 w2 b10 then -1
    else
      add_slots buf (off + Fat_types.entry_bytes) per w0 w1 w2 b10 free (i + 1)
  end

(* The duplicate check and the free-slot search in one walk: -1 on a
   duplicate, else the packed position to write, whose slot is [per]
   when every slot of the chain is live and the entry goes into a fresh
   cluster after the packed one. [first] is the first free position seen
   (-1 while there is none). *)
let rec add_walk img w0 w1 w2 b10 per total cluster steps first =
  if steps > total then failwith "Fat_dir.add: cycle in cluster chain"
  else begin
    let r =
      add_slots (checked_block img cluster) 0 per w0 w1 w2 b10 per 0
    in
    if r < 0 then -1
    else begin
      let free = r lsr 1 in
      let first = if first < 0 && free < per then pack cluster free else first in
      if r land 1 = 1 then first
      else begin
        let next = Fat_image.next_cluster img cluster in
        if next >= 0 then
          add_walk img w0 w1 w2 b10 per total next (steps + 1) first
        else if first >= 0 then first
        else pack cluster per
      end
    end
  end

let write_entry img cluster slot entry =
  Fat_types.encode_entry entry
    (Fat_image.writable_block img cluster)
    ~off:(slot * Fat_types.entry_bytes)

let add img ~head entry =
  let name83 = entry.Fat_types.name in
  if String.length name83 <> 11 then
    invalid_arg "Fat_dir.add: name not 11 bytes";
  let per = entries_per_cluster img in
  let p =
    add_walk img
      (Int32.to_int (name32 name83 0))
      (Int32.to_int (name32 name83 4))
      (name16 name83 8)
      (Char.code name83.[10])
      per (Fat_image.total_clusters img) head 0 (-1)
  in
  if p < 0 then Error (Printf.sprintf "duplicate entry %S" name83)
  else begin
    let cluster = packed_cluster p and slot = packed_slot p in
    (* Writing over the end marker is safe: the rest of the cluster is
       zero. *)
    if slot < per then Ok (write_entry img cluster slot entry)
    else
      match Fat_image.alloc_cluster img ~prev:(Some cluster) with
      | None -> Error "volume full"
      | Some fresh -> Ok (write_entry img fresh 0 entry)
  end

type run = { bytes : Bytes.t; blocks : Bytes.t array }

let run_of_entries img bytes =
  if Bytes.length bytes mod Fat_types.entry_bytes <> 0 then
    invalid_arg "Fat_dir.run_of_entries: run is not whole entries";
  let cb = Fat_image.cluster_bytes img in
  let blocks =
    Array.init
      ((Bytes.length bytes + cb - 1) / cb)
      (fun k ->
        let block = Bytes.make cb '\x00' in
        Bytes.blit bytes (k * cb) block 0
          (Int.min cb (Bytes.length bytes - (k * cb)));
        block)
  in
  { bytes; blocks }

(* The append point of a chain: its last cluster, reached one FAT cell at
   a time, and the slot of the end marker there ([per] when full). *)
let rec last_cluster img total cluster steps =
  if steps > total then failwith "Fat_dir.append_bulk: cycle in cluster chain"
  else begin
    let next = Fat_image.next_cluster img cluster in
    if next < 0 then cluster else last_cluster img total next (steps + 1)
  end

let rec end_slot buf per i =
  if i >= per || Fat_types.is_end buf ~off:(i * Fat_types.entry_bytes) then i
  else end_slot buf per (i + 1)

(* Copy the run from byte [src] on into [cluster] from [slot], then into
   fresh clusters linked after it. A cluster filled from slot 0 at a
   cluster-aligned [src] shares the run's block for that slice when it
   still reads as zero; any other fill copies the cluster's block and
   blits into it. *)
let rec append_run img run src cluster slot =
  let len = Bytes.length run.bytes in
  let per = entries_per_cluster img in
  if src >= len then Ok ()
  else if slot >= per then begin
    match Fat_image.alloc_cluster img ~prev:(Some cluster) with
    | None -> Error "volume full"
    | Some fresh -> append_run img run src fresh 0
  end
  else begin
    let cb = Fat_image.cluster_bytes img in
    let n = Int.min (len - src) ((per - slot) * Fat_types.entry_bytes) in
    if
      not
        (slot = 0
        && src mod cb = 0
        && Fat_image.share_block img cluster run.blocks.(src / cb))
    then
      Bytes.blit run.bytes src
        (Fat_image.writable_block img cluster)
        (slot * Fat_types.entry_bytes)
        n;
    (* either the run is done or this cluster is now full *)
    append_run img run (src + n) cluster per
  end

let append_bulk img ~head run =
  let last = last_cluster img (Fat_image.total_clusters img) head 0 in
  let slot =
    end_slot (Fat_image.cluster_block img last) (entries_per_cluster img) 0
  in
  append_run img run 0 last slot

let remove img ~head ~name83 =
  let p = locate img name83 (Fat_image.total_clusters img) head 0 in
  p >= 0
  && begin
       Bytes.set
         (Fat_image.writable_block img (packed_cluster p))
         (packed_slot p * Fat_types.entry_bytes)
         Fat_types.deleted_marker;
       true
     end

let list img ~head =
  let per = entries_per_cluster img in
  let rec walk acc = function
    | [] -> List.rev acc
    | cluster :: rest ->
        let buf = Fat_image.cluster_block img cluster in
        let rec go acc i =
          if i >= per then walk acc rest
          else begin
            let off = i * Fat_types.entry_bytes in
            if Fat_types.is_end buf ~off then List.rev acc
            else if Fat_types.is_deleted buf ~off then go acc (i + 1)
            else go (Fat_types.decode_entry buf ~off :: acc) (i + 1)
          end
        in
        go acc 0
  in
  walk [] (Fat_image.chain img head)

let count img ~head = List.length (list img ~head)
