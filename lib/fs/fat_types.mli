(** On-disk formats for the in-memory FAT16-style file system (derived from
    the EFSL FAT layout the paper modified: in-memory image, no buffer
    cache, 32-byte directory entries). *)

(** [sector_bytes] is 512; [entry_bytes] is 32, as in the paper's
    workload description. *)

val sector_bytes : int
val entry_bytes : int

(** FAT table cell values (2 bytes per cluster): [fat_free] = 0x0000,
    [fat_eoc] = 0xFFFF (end of chain), [fat_bad] = 0xFFF7. *)

val fat_free : int
val fat_eoc : int
val fat_bad : int

(** Directory-entry attribute bits. *)

val attr_directory : int
val attr_archive : int

type entry = {
  name : string;  (** 11-byte padded 8.3 form, see {!Fat_name}. *)
  attr : int;
  first_cluster : int;  (** 0 for empty files. *)
  size : int;  (** File size in bytes. *)
}

val end_marker : char
(** First byte of a directory slot past the last entry (0x00). *)

val deleted_marker : char
(** First byte of a deleted entry (0xE5). *)

(** Little-endian field accessors used across the on-disk structures. *)

val put16 : bytes -> int -> int -> unit
val get16 : bytes -> int -> int
val put32 : bytes -> int -> int -> unit
val get32 : bytes -> int -> int

val encode_entry : entry -> bytes -> off:int -> unit
(** Serialise into 32 bytes at [off]. *)

val decode_entry : bytes -> off:int -> entry
val is_end : bytes -> off:int -> bool
val is_deleted : bytes -> off:int -> bool
