(** fsck-style consistency checker for a FAT volume; run by the test suite
    after every mutating scenario. *)

type report = {
  directories : int;
  files : int;
  clusters_used : int;
  problems : string list;
}

(**/**)

val check : Fat.t -> report
(** For tests: the fsck every FAT test ends with.
    Walks the tree from the root verifying: boot-record magic and
    geometry; every FAT cell is free / end-of-chain / bad / a valid link;
    no cluster belongs to two chains; chains are acyclic; directory
    entries decode to valid 8.3 names with sane attributes; the image's
    free count matches the FAT. *)

val ok : report -> bool
(** For tests: the fsck every FAT test ends with. *)
