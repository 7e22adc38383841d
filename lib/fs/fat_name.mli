(** 8.3 short-name handling: conversion between user names like
    ["file0042.txt"] and the 11-byte space-padded uppercase form stored in
    directory entries (["FILE0042TXT"]). *)

val to_83 : string -> (string, string) result
(** Encode; [Error] explains why the name is not a valid 8.3 name
    (empty, too long, bad characters, multiple dots...). *)

val of_83 : string -> string
(** Decode a padded 11-byte form back to ["name.ext"] (lowercased). *)

(**/**)

val to_83_exn : string -> string
(** For tests: 8.3 encoding without the result wrapper. *)

val equal : string -> string -> bool
(** For tests: checks case-insensitive name matching.
    Case-insensitive comparison of two user names via their 8.3 forms;
    false if either is invalid. *)
