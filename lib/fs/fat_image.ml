let magic = "O2FAT1"
let first_cluster_no = 2

type t = {
  mem_base : int;
  cluster_bytes_ : int;
  total : int;
  fat_off : int;  (* byte offset of the FAT region within the image *)
  data_off : int;  (* byte offset of cluster #2 *)
  buf_ : Bytes.t;
  mutable free : int;
  mutable hint : int;  (* next cluster to try allocating *)
}

let round_up v align = (v + align - 1) / align * align

let create mem ~label ~cluster_bytes ~total_clusters =
  if cluster_bytes <= 0 || cluster_bytes mod Fat_types.sector_bytes <> 0 then
    invalid_arg "Fat_image.create: cluster_bytes must be a sector multiple";
  if total_clusters <= 0 || total_clusters > 0xFFF0 - first_cluster_no then
    invalid_arg "Fat_image.create: total_clusters out of range for FAT16";
  let fat_off = Fat_types.sector_bytes in
  let fat_bytes =
    round_up (2 * (total_clusters + first_cluster_no)) Fat_types.sector_bytes
  in
  let data_off = fat_off + fat_bytes in
  let image_size = data_off + (total_clusters * cluster_bytes) in
  let ext =
    O2_simcore.Memsys.alloc mem ~name:("fat:" ^ label) ~size:image_size
  in
  let buf_ = Bytes.make image_size '\x00' in
  (* Boot record: magic, then geometry, so Fat_check can revalidate. *)
  Bytes.blit_string magic 0 buf_ 0 (String.length magic);
  Fat_types.put32 buf_ 8 cluster_bytes;
  Fat_types.put32 buf_ 12 total_clusters;
  let t =
    {
      mem_base = ext.O2_simcore.Memsys.base;
      cluster_bytes_ = cluster_bytes;
      total = total_clusters;
      fat_off;
      data_off;
      buf_;
      free = total_clusters;
      hint = first_cluster_no;
    }
  in
  (* Reserve the two conventional head cells. *)
  Fat_types.put16 buf_ fat_off 0xFFF8;
  Fat_types.put16 buf_ (fat_off + 2) Fat_types.fat_eoc;
  t

let cluster_bytes t = t.cluster_bytes_
let total_clusters t = t.total
let free_clusters t = t.free
let base_addr t = t.mem_base
let image_bytes t = Bytes.length t.buf_
let buf t = t.buf_
let valid_cluster t c = c >= first_cluster_no && c < first_cluster_no + t.total

let cluster_off t c =
  if not (valid_cluster t c) then
    invalid_arg (Printf.sprintf "Fat_image: bad cluster %d" c);
  t.data_off + ((c - first_cluster_no) * t.cluster_bytes_)

let cluster_addr t c = t.mem_base + cluster_off t c
let fat_entry_addr t c = t.mem_base + t.fat_off + (2 * c)

let fat_get t c =
  if not (valid_cluster t c) then
    invalid_arg (Printf.sprintf "Fat_image.fat_get: bad cluster %d" c);
  Fat_types.get16 t.buf_ (t.fat_off + (2 * c))

let fat_set t c v =
  if not (valid_cluster t c) then
    invalid_arg (Printf.sprintf "Fat_image.fat_set: bad cluster %d" c);
  Fat_types.put16 t.buf_ (t.fat_off + (2 * c)) v

(* First free cluster from [c] on, wrapping at [limit], or -1 after
   [remaining] cells. A top-level recursion returning an int, so finding
   a cluster allocates nothing (volume population calls this per
   cluster). *)
let rec free_from t limit c remaining =
  if remaining = 0 then -1
  else begin
    let c = if c >= limit then first_cluster_no else c in
    if fat_get t c = Fat_types.fat_free then c
    else free_from t limit (c + 1) (remaining - 1)
  end

let alloc_cluster t ~prev =
  let c =
    if t.free = 0 then -1
    else free_from t (first_cluster_no + t.total) t.hint t.total
  in
  if c < 0 then None
  else begin
    fat_set t c Fat_types.fat_eoc;
    t.free <- t.free - 1;
    t.hint <- c + 1;
    (match prev with Some p -> fat_set t p c | None -> ());
    Some c
  end

let alloc_chain t n =
  if n <= 0 then invalid_arg "Fat_image.alloc_chain: n must be positive";
  if t.free < n then None
  else begin
    let rec go head prev remaining =
      if remaining = 0 then Some head
      else
        match alloc_cluster t ~prev with
        | None -> None  (* cannot happen: free count checked *)
        | Some c ->
            let head = match head with None -> Some c | some -> some in
            go head (Some c) (remaining - 1)
    in
    match go None None n with Some (Some h) -> Some h | _ -> None
  end

(* Single-step chain walk for the lookup hot path: no list, no option. *)
let next_cluster t c =
  let next = fat_get t c in
  if next = Fat_types.fat_eoc then -1
  else if not (valid_cluster t next) then
    failwith (Printf.sprintf "Fat_image.next_cluster: bad link %d" next)
  else next

let chain t head =
  let rec go c acc steps =
    if steps > t.total then failwith "Fat_image.chain: cycle detected"
    else if not (valid_cluster t c) then
      failwith (Printf.sprintf "Fat_image.chain: bad link %d" c)
    else begin
      let next = fat_get t c in
      if next = Fat_types.fat_eoc then List.rev (c :: acc)
      else go next (c :: acc) (steps + 1)
    end
  in
  go head [] 0

let free_chain t head =
  List.iter
    (fun c ->
      fat_set t c Fat_types.fat_free;
      t.free <- t.free + 1)
    (chain t head);
  t.hint <- min t.hint head
