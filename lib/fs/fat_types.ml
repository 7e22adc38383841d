let sector_bytes = 512
let entry_bytes = 32
let fat_free = 0x0000
let fat_eoc = 0xFFFF
let fat_bad = 0xFFF7
let attr_directory = 0x10
let attr_archive = 0x20

type entry = { name : string; attr : int; first_cluster : int; size : int }

let end_marker = '\x00'
let deleted_marker = '\xE5'

let put16 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let put32 b off v =
  put16 b off (v land 0xFFFF);
  put16 b (off + 2) ((v lsr 16) land 0xFFFF)

let get32 b off = get16 b off lor (get16 b (off + 2) lsl 16)

let encode_entry e b ~off =
  if String.length e.name <> 11 then invalid_arg "encode_entry: name not 11 bytes";
  Bytes.blit_string e.name 0 b off 11;
  Bytes.set b (off + 11) (Char.chr (e.attr land 0xFF));
  Bytes.fill b (off + 12) 14 '\x00';
  put16 b (off + 26) e.first_cluster;
  put32 b (off + 28) e.size

let decode_entry b ~off =
  {
    name = Bytes.sub_string b off 11;
    attr = Char.code (Bytes.get b (off + 11));
    first_cluster = get16 b (off + 26);
    size = get32 b (off + 28);
  }

let is_end b ~off = Bytes.get b off = end_marker
let is_deleted b ~off = Bytes.get b off = deleted_marker
