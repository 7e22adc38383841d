(* A reference FAT volume on one flat [Bytes.t], for the model tests of
   the copy-on-write image: the same on-disk layout and allocation policy
   as O2_fs, written the plain way (byte-wise scans, chains as lists,
   every write in place). [lookup] lists the memory charges a simulated
   lookup must make. *)

open O2_fs

let sector = 512
let eoc = 0xFFFF

type t = {
  buf : Bytes.t;
  cb : int;
  total : int;
  data_off : int;
  mem_base : int;  (* simulated address of image byte 0 *)
  mutable free : int;
  mutable hint : int;
  mutable root : int;
  dirs : (string, int) Hashtbl.t;  (* mkdir name -> head *)
}

let fat_off = sector
let per t = t.cb / 32
let get16 t off =
  Char.code (Bytes.get t.buf off) lor (Char.code (Bytes.get t.buf (off + 1)) lsl 8)

let set16 t off v =
  Bytes.set t.buf off (Char.chr (v land 0xFF));
  Bytes.set t.buf (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let fat_get t c = get16 t (fat_off + (2 * c))
let fat_set t c v = set16 t (fat_off + (2 * c)) v
let cluster_off t c = t.data_off + ((c - 2) * t.cb)
let slot_off t c i = cluster_off t c + (i * 32)

let rec chain t c = if fat_get t c = eoc then [ c ] else c :: chain t (fat_get t c)
let last_cluster t head = List.nth (chain t head) (List.length (chain t head) - 1)

let alloc t ~prev =
  if t.free = 0 then None
  else begin
    let limit = 2 + t.total in
    let rec first c =
      if fat_get t c = 0 then c else first (if c + 1 >= limit then 2 else c + 1)
    in
    let c = first (if t.hint >= limit then 2 else t.hint) in
    fat_set t c eoc;
    Bytes.fill t.buf (cluster_off t c) t.cb '\x00';
    t.free <- t.free - 1;
    t.hint <- c + 1;
    Option.iter (fun p -> fat_set t p c) prev;
    Some c
  end

let free_chain t head =
  List.iter
    (fun c ->
      fat_set t c 0;
      t.free <- t.free + 1)
    (chain t head);
  t.hint <- Int.min t.hint head

let create ~mem_base ~cluster_bytes ~total =
  let fat_bytes = (2 * (total + 2) + sector - 1) / sector * sector in
  let data_off = sector + fat_bytes in
  let t =
    {
      buf = Bytes.make (data_off + (total * cluster_bytes)) '\x00';
      cb = cluster_bytes;
      total;
      data_off;
      mem_base;
      free = total;
      hint = 2;
      root = 0;
      dirs = Hashtbl.create 8;
    }
  in
  Bytes.blit_string Fat_image.magic 0 t.buf 0 (String.length Fat_image.magic);
  Fat_types.put32 t.buf 8 cluster_bytes;
  Fat_types.put32 t.buf 12 total;
  set16 t fat_off 0xFFF8;
  set16 t (fat_off + 2) eoc;
  t.root <- Option.get (alloc t ~prev:None);
  t

(* Slots of a directory in chain order, up to (not including) the end
   marker, as (cluster, slot) pairs. *)
let slots_before_end t head =
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | c :: rest ->
        let rec slot acc i =
          if i >= per t then go acc rest
          else if Bytes.get t.buf (slot_off t c i) = '\x00' then
            (List.rev acc, Some (c, i))
          else slot ((c, i) :: acc) (i + 1)
        in
        slot acc 0
  in
  go [] (chain t head)

let live t (c, i) = Bytes.get t.buf (slot_off t c i) <> '\xE5'
let name_at t (c, i) = Bytes.sub_string t.buf (slot_off t c i) 11

let add t ~head (e : Fat_types.entry) =
  let used, end_slot = slots_before_end t head in
  if List.exists (fun s -> live t s && name_at t s = e.name) used then
    Error (Printf.sprintf "duplicate entry %S" e.name)
  else begin
    let write (c, i) =
      Fat_types.encode_entry e t.buf ~off:(slot_off t c i);
      Ok ()
    in
    match (List.find_opt (fun s -> not (live t s)) used, end_slot) with
    | Some s, _ | None, Some s -> write s
    | None, None -> (
        match alloc t ~prev:(Some (last_cluster t head)) with
        | None -> Error "volume full"
        | Some c -> write (c, 0))
  end

let mkdir t name =
  let name83 = Fat_name.to_83_exn name in
  if Hashtbl.mem t.dirs name then Error ("directory exists: /" ^ name)
  else
    match alloc t ~prev:None with
    | None -> Error "volume full"
    | Some head -> (
        let e =
          {
            Fat_types.name = name83;
            attr = Fat_types.attr_directory;
            first_cluster = head;
            size = 0;
          }
        in
        match add t ~head:t.root e with
        | Error err ->
            free_chain t head;
            Error err
        | Ok () ->
            Hashtbl.replace t.dirs name head;
            Ok head)

let file name83 size =
  { Fat_types.name = name83; attr = Fat_types.attr_archive; first_cluster = 0; size }

(* Populate: each directory in turn gets every entry appended after its
   end marker, growing the chain cluster by cluster. *)
let populate t heads names83 =
  let append head =
    let last = last_cluster t head in
    let rec end_of i =
      if i >= per t || Bytes.get t.buf (slot_off t last i) = '\x00' then i
      else end_of (i + 1)
    in
    let rec go c i = function
      | [] -> Ok ()
      | name :: rest ->
          if i >= per t then
            match alloc t ~prev:(Some c) with
            | None -> Error "volume full"
            | Some fresh -> go fresh 0 (name :: rest)
          else begin
            Fat_types.encode_entry (file name 0) t.buf ~off:(slot_off t c i);
            go c (i + 1) rest
          end
    in
    go last (end_of 0) (Array.to_list names83)
  in
  List.fold_left
    (fun r head -> match r with Error _ -> r | Ok () -> append head)
    (Ok ()) heads

let remove t ~head name83 =
  let used, _ = slots_before_end t head in
  match List.find_opt (fun s -> live t s && name_at t s = name83) used with
  | None -> false
  | Some (c, i) ->
      Bytes.set t.buf (slot_off t c i) '\xE5';
      true

type charge = Read of int * int | Compute of int

(* The result and the charges of a simulated lookup: per cluster, the
   slots examined up to the hit or the end marker (bytes read, then the
   compare cycles), and a FAT-cell read before moving on. *)
let lookup t ~head ~compare_cycles name83 =
  let charges = ref [] in
  let charge c slots =
    charges :=
      Compute (slots * compare_cycles)
      :: Read (t.mem_base + cluster_off t c, slots * 32)
      :: !charges
  in
  let rec walk c =
    let rec slot i =
      if i >= per t then begin
        charge c (per t);
        let next = fat_get t c in
        if next = eoc then None
        else begin
          charges := Read (t.mem_base + fat_off + (2 * c), 2) :: !charges;
          walk next
        end
      end
      else begin
        let off = slot_off t c i in
        if Bytes.get t.buf off = '\x00' then (charge c (i + 1); None)
        else if
          Bytes.get t.buf off <> '\xE5' && Bytes.sub_string t.buf off 11 = name83
        then begin
          charge c (i + 1);
          Some (Fat_types.decode_entry t.buf ~off)
        end
        else slot (i + 1)
      end
    in
    slot 0
  in
  let r = walk head in
  (r, List.rev !charges)
