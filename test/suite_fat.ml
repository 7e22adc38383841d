(* The FAT substrate: 8.3 names, image/chain management, directory
   operations, simulated lookups, and the fsck checker. *)

open O2_simcore
open O2_fs

let mem () = Memsys.create ~line_bytes:64 ()

(* ---------- names ---------- *)

let test_name_encode () =
  Alcotest.(check (result string string)) "simple" (Ok "FILE    TXT")
    (Fat_name.to_83 "file.txt");
  Alcotest.(check (result string string)) "no extension" (Ok "README     ")
    (Fat_name.to_83 "readme");
  Alcotest.(check (result string string)) "full width" (Ok "ABCDEFGHIJK")
    (Fat_name.to_83 "abcdefgh.ijk")

let test_name_rejects () =
  let bad s = Result.is_error (Fat_name.to_83 s) in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "too long base" true (bad "abcdefghi");
  Alcotest.(check bool) "too long ext" true (bad "a.abcd");
  Alcotest.(check bool) "two dots" true (bad "a.b.c");
  Alcotest.(check bool) "leading dot" true (bad ".bashrc");
  Alcotest.(check bool) "space" true (bad "a b.txt")

let test_name_roundtrip () =
  List.iter
    (fun n ->
      let enc = Fat_name.to_83_exn n in
      Alcotest.(check string) n n (Fat_name.of_83 enc))
    [ "file.txt"; "readme"; "a.b"; "f123.dat"; "abcdefgh.ijk" ]

let test_name_equal_case_insensitive () =
  Alcotest.(check bool) "case" true (Fat_name.equal "File.TXT" "fILE.txt");
  Alcotest.(check bool) "different" false (Fat_name.equal "a.txt" "b.txt");
  Alcotest.(check bool) "invalid" false (Fat_name.equal "" "")

let prop_valid_names_roundtrip =
  let name_gen =
    QCheck2.Gen.(
      let letters n =
        string_size ~gen:(char_range 'a' 'z') (int_range 1 n)
      in
      map2
        (fun base ext -> if ext = "" then base else base ^ "." ^ ext)
        (letters 8)
        (oneof [ return ""; letters 3 ]))
  in
  QCheck2.Test.make ~name:"8.3 round-trip for valid names" ~count:300 name_gen
    (fun n ->
      match Fat_name.to_83 n with
      | Error _ -> false
      | Ok enc -> String.length enc = 11 && Fat_name.of_83 enc = n)

(* ---------- entries ---------- *)

let test_entry_roundtrip () =
  let e =
    {
      Fat_types.name = Fat_name.to_83_exn "boot.bin";
      attr = Fat_types.attr_archive;
      first_cluster = 1234;
      size = 987654;
    }
  in
  let b = Bytes.make 64 '\xAA' in
  Fat_types.encode_entry e b ~off:32;
  Alcotest.(check bool) "decodes equal" true (Fat_types.decode_entry b ~off:32 = e)

(* ---------- image / chains ---------- *)

let image ?(clusters = 64) () =
  Fat_image.create (mem ()) ~label:"t" ~cluster_bytes:512 ~total_clusters:clusters

let test_image_geometry () =
  let img = image () in
  Alcotest.(check int) "free initially" 64 (Fat_image.free_clusters img);
  Alcotest.(check bool) "cluster 2 valid" true (Fat_image.valid_cluster img 2);
  Alcotest.(check bool) "cluster 66 invalid" false (Fat_image.valid_cluster img 66);
  Alcotest.(check bool) "cluster 1 invalid" false (Fat_image.valid_cluster img 1);
  (* simulated addresses are distinct per cluster and within the extent *)
  let a2 = Fat_image.cluster_addr img 2 and a3 = Fat_image.cluster_addr img 3 in
  Alcotest.(check int) "consecutive clusters 512B apart" 512 (a3 - a2)

let test_chain_alloc_follow_free () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_chain img 5) in
  let chain = Fat_image.chain img head in
  Alcotest.(check int) "5 clusters" 5 (List.length chain);
  Alcotest.(check int) "free decremented" 59 (Fat_image.free_clusters img);
  Fat_image.free_chain img head;
  Alcotest.(check int) "freed" 64 (Fat_image.free_clusters img)

let test_chain_extension () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_cluster img ~prev:None) in
  let second = Option.get (Fat_image.alloc_cluster img ~prev:(Some head)) in
  Alcotest.(check (list int)) "linked" [ head; second ] (Fat_image.chain img head)

let test_alloc_exhaustion () =
  let img = image ~clusters:4 () in
  Alcotest.(check bool) "fits" true (Fat_image.alloc_chain img 4 <> None);
  Alcotest.(check (option int)) "full" None (Fat_image.alloc_cluster img ~prev:None)

let test_chain_cycle_detected () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_chain img 3) in
  (* corrupt: point the chain back at its head *)
  let second = List.nth (Fat_image.chain img head) 1 in
  Fat_image.fat_set img second head;
  Alcotest.(check bool) "cycle raises" true
    (match Fat_image.chain img head with
    | _ -> false
    | exception Failure _ -> true)

(* ---------- directories ---------- *)

let test_dir_add_find_remove () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_cluster img ~prev:None) in
  let entry name =
    {
      Fat_types.name = Fat_name.to_83_exn name;
      attr = Fat_types.attr_archive;
      first_cluster = 0;
      size = 0;
    }
  in
  Alcotest.(check bool) "add a" true (Fat_dir.add img ~head (entry "a.txt") = Ok ());
  Alcotest.(check bool) "add b" true (Fat_dir.add img ~head (entry "b.txt") = Ok ());
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (Fat_dir.add img ~head (entry "a.txt")));
  Alcotest.(check int) "count" 2 (Fat_dir.count img ~head);
  Alcotest.(check bool) "find a" true
    (Fat_dir.find img ~head ~name83:(Fat_name.to_83_exn "a.txt") <> None);
  Alcotest.(check bool) "remove a" true
    (Fat_dir.remove img ~head ~name83:(Fat_name.to_83_exn "a.txt"));
  Alcotest.(check bool) "a gone" true
    (Fat_dir.find img ~head ~name83:(Fat_name.to_83_exn "a.txt") = None);
  (* deleted slot is reused *)
  Alcotest.(check bool) "add c reuses slot" true
    (Fat_dir.add img ~head (entry "c.txt") = Ok ());
  Alcotest.(check int) "count back to 2" 2 (Fat_dir.count img ~head)

let test_dir_grows_across_clusters () =
  let img = image () in
  let head = Option.get (Fat_image.alloc_cluster img ~prev:None) in
  let per = Fat_dir.entries_per_cluster img in
  let n = (2 * per) + 3 in
  for i = 0 to n - 1 do
    let e =
      {
        Fat_types.name = Fat_name.to_83_exn (Printf.sprintf "f%d.dat" i);
        attr = Fat_types.attr_archive;
        first_cluster = 0;
        size = 0;
      }
    in
    match Fat_dir.add img ~head e with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "add %d: %s" i msg
  done;
  Alcotest.(check int) "3 clusters" 3 (List.length (Fat_image.chain img head));
  Alcotest.(check int) "all present" n (Fat_dir.count img ~head);
  Alcotest.(check bool) "find across boundary" true
    (Fat_dir.find img ~head ~name83:(Fat_name.to_83_exn (Printf.sprintf "f%d.dat" (n - 1)))
    <> None)

let names83 prefix n =
  Array.init n (fun i -> Fat_name.to_83_exn (Printf.sprintf "%s%d.dat" prefix i))

(* Fat.populate copies one encoded run into each directory's chain; it
   must leave exactly the image that one Fat_dir.add per entry leaves,
   directory after directory in array order. The volume uses 4 KB
   clusters (128 entries), and the generated shapes cover that boundary
   exactly, chains that already hold entries, and chains made
   non-contiguous by mkdirs interleaved with their growth. *)
type populate_case = {
  ndirs : int;
  pre : int;  (* entries already in each directory *)
  gaps : bool;  (* mkdir between pre-entry rounds *)
  nnames : int;
}

let populate_case_gen =
  let open QCheck2.Gen in
  let count edges = oneof [ int_range 0 400; oneofl edges ] in
  map
    (fun (ndirs, pre, gaps, nnames) -> { ndirs; pre; gaps; nnames })
    (quad (int_range 1 3)
       (oneof [ pure 0; count [ 127; 128; 129 ] ])
       bool
       (count [ 0; 1; 127; 128; 129; 256 ]))

let print_populate_case c =
  Printf.sprintf "{ndirs=%d; pre=%d; gaps=%b; nnames=%d}" c.ndirs c.pre
    c.gaps c.nnames

let populate_volume ?(clusters = 64) c fill =
  let fs = Fat.format (mem ()) ~label:"t" ~cluster_bytes:4096 ~clusters () in
  let dirs =
    Array.init c.ndirs (fun i ->
        Result.get_ok (Fat.mkdir fs (Printf.sprintf "d%d" i)))
  in
  for k = 0 to c.pre - 1 do
    Array.iter
      (fun d ->
        Result.get_ok (Fat.add_file fs d ~name:(Printf.sprintf "p%d.dat" k) ~size:0))
      dirs;
    if c.gaps && k mod 50 = 0 then
      ignore (Result.get_ok (Fat.mkdir fs (Printf.sprintf "g%d" k)))
  done;
  let r = fill fs dirs (names83 "f" c.nnames) in
  (fs, r)

let populate_by_add fs dirs names =
  let add d name =
    Fat_dir.add (Fat.image fs) ~head:d.Fat.head
      {
        Fat_types.name;
        attr = Fat_types.attr_archive;
        first_cluster = 0;
        size = 0;
      }
  in
  Array.fold_left
    (fun r d ->
      Array.fold_left
        (fun r name -> match r with Error _ -> r | Ok () -> add d name)
        r names)
    (Ok ()) dirs

let populate_bulk fs dirs names = Fat.populate fs dirs ~names83:names

let image_bytes fs = Fat_image.to_bytes (Fat.image fs)

let prop_populate_matches_add =
  QCheck2.Test.make ~name:"Fat.populate = one Fat_dir.add per entry (same image)"
    ~count:100 ~print:print_populate_case
    (* no shrinking: each candidate replays up to 3 x 400 adds and a
       populate, so shrinking a failure ran for minutes *)
    (QCheck2.Gen.no_shrink populate_case_gen) (fun c ->
      let fs_add, r_add = populate_volume c populate_by_add in
      let fs_bulk, r_bulk = populate_volume c populate_bulk in
      r_add = Ok ()
      && r_bulk = Ok ()
      && Bytes.equal (image_bytes fs_add) (image_bytes fs_bulk)
      && Fat_check.ok (Fat_check.check fs_bulk))

(* A volume that runs out of clusters part-way through the second
   directory: populate reports it, stops where repeated adds stop, and
   leaves a consistent volume. *)
let test_populate_volume_full () =
  let c = { ndirs = 2; pre = 0; gaps = false; nnames = 400 } in
  let fs_add, r_add = populate_volume ~clusters:6 c populate_by_add in
  let fs_bulk, r_bulk = populate_volume ~clusters:6 c populate_bulk in
  Alcotest.(check (result unit string)) "populate reports it"
    (Error "volume full") r_bulk;
  Alcotest.(check (result unit string)) "adds report it too"
    (Error "volume full") r_add;
  Alcotest.(check bool) "same image as repeated adds" true
    (Bytes.equal (image_bytes fs_add) (image_bytes fs_bulk));
  Alcotest.(check int) "no cluster left" 0
    (Fat_image.free_clusters (Fat.image fs_bulk));
  let r = Fat_check.check fs_bulk in
  Alcotest.(check bool) "fsck clean" true (Fat_check.ok r);
  Alcotest.(check int) "first dir full, second cut at a cluster end"
    (400 + 128) r.Fat_check.files

(* ---------- Fat facade + simulated lookups ---------- *)

let fat () =
  let m = Memsys.create ~line_bytes:64 () in
  (m, Fat.format m ~label:"t" ~cluster_bytes:512 ~clusters:256 ())

let test_fat_mkdir_and_host_lookup () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "www") in
  Result.get_ok (Fat.populate fs [| d |] ~names83:(names83 "page" 30));
  Alcotest.(check bool) "host lookup hit" true (Fat.lookup_host fs d "page7.dat" <> None);
  Alcotest.(check bool) "host lookup miss" true (Fat.lookup_host fs d "nope.dat" = None);
  Alcotest.(check int) "readdir count" 30 (List.length (Fat.readdir fs d));
  Alcotest.(check bool) "find_dir" true (Fat.find_dir fs "www" = Some d);
  Alcotest.(check bool) "duplicate mkdir fails" true (Result.is_error (Fat.mkdir fs "www"))

let test_fat_sim_lookup_agrees_with_host () =
  (* the volume must live in the machine's memory for simulated reads *)
  let machine = Machine.create Config.amd16 in
  let fs = Fat.format (Machine.memory machine) ~label:"t" ~cluster_bytes:512 ~clusters:256 () in
  let d = Result.get_ok (Fat.mkdir fs "docs") in
  Result.get_ok (Fat.populate fs [| d |] ~names83:(names83 "f" 100));
  let engine = O2_runtime.Engine.create machine in
  let sim_result = ref None and sim_miss = ref (Some Fat_types.{ name = ""; attr = 0; first_cluster = 0; size = 0 }) in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         sim_result := Fat.lookup fs d "f55.dat";
         sim_miss := Fat.lookup fs d "missing.dat"));
  O2_runtime.Engine.run engine;
  Alcotest.(check bool) "hit agrees with host" true
    (!sim_result = Fat.lookup_host fs d "f55.dat" && !sim_result <> None);
  Alcotest.(check bool) "miss agrees" true (!sim_miss = None);
  Alcotest.(check bool) "lookup charged cycles" true
    (O2_runtime.Engine.core_clock engine 0 > 0)

let test_fat_lookup_locked_serializes () =
  let machine = Machine.create Config.amd16 in
  let fs = Fat.format (Machine.memory machine) ~label:"t" ~cluster_bytes:512 ~clusters:512 () in
  let d = Result.get_ok (Fat.mkdir fs "shared") in
  Result.get_ok (Fat.populate fs [| d |] ~names83:(names83 "f" 200));
  let engine = O2_runtime.Engine.create machine in
  let hits = ref 0 in
  for core = 0 to 3 do
    ignore
      (O2_runtime.Engine.spawn engine ~core ~name:(Printf.sprintf "w%d" core)
         (fun () ->
           for i = 0 to 9 do
             let name83 = Fat_name.to_83_exn (Printf.sprintf "f%d.dat" (i * 17)) in
             if Fat.lookup_locked_83 fs d name83 <> None
             then incr hits
           done))
  done;
  O2_runtime.Engine.run engine;
  Alcotest.(check int) "all lookups resolved" 40 !hits;
  Alcotest.(check int) "lock used" 40 d.Fat.lock.O2_runtime.Spinlock.acquisitions

let test_fsck_clean_and_detects_corruption () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "a") in
  Result.get_ok (Fat.populate fs [| d |] ~names83:(names83 "f" 50));
  let r = Fat_check.check fs in
  Alcotest.(check bool) "clean volume" true (Fat_check.ok r);
  Alcotest.(check int) "two directories (root + a)" 2 r.Fat_check.directories;
  Alcotest.(check int) "50 files" 50 r.Fat_check.files;
  (* corrupt the FAT: cross-link a cluster *)
  let img = Fat.image fs in
  Fat_image.fat_set img d.Fat.head d.Fat.head;
  let r = Fat_check.check fs in
  Alcotest.(check bool) "corruption detected" false (Fat_check.ok r)

let test_fat_rejects_invalid_names () =
  let _, fs = fat () in
  Alcotest.(check bool) "mkdir bad name" true (Result.is_error (Fat.mkdir fs "bad name"));
  let d = Result.get_ok (Fat.mkdir fs "ok") in
  Alcotest.(check bool) "add_file bad name" true
    (Result.is_error (Fat.add_file fs d ~name:"also bad" ~size:0))

let test_dir_object_identity () =
  let _, fs = fat () in
  let d = Result.get_ok (Fat.mkdir fs "obj") in
  Result.get_ok (Fat.populate fs [| d |] ~names83:(names83 "f" 40));
  Alcotest.(check int) "base addr = first cluster addr"
    (Fat_image.cluster_addr (Fat.image fs) d.Fat.head)
    (Fat.dir_base_addr fs d);
  Alcotest.(check int) "size covers the chain"
    (List.length (Fat.dir_clusters fs d) * 512)
    (Fat.dir_bytes fs d)

let test_nested_dirs_and_paths () =
  let _, fs = fat () in
  let www = Result.get_ok (Fat.mkdir fs "www") in
  let static = Result.get_ok (Fat.mkdir_in fs www "static") in
  Result.get_ok (Fat.populate fs [| static |] ~names83:(names83 "img" 10));
  Alcotest.(check (option string)) "registered under its path" (Some "/www/static")
    (Option.map (fun d -> d.Fat.dname) (Fat.find_dir fs "/www/static"));
  Alcotest.(check bool) "parent of static is www" true
    (Fat.parent fs static = Some www);
  Alcotest.(check bool) "parent of root-level dir is root" true
    (Fat.parent fs www = Some (Fat.root fs));
  (match Fat.resolve fs "/www/static/img3.dat" with
  | Some (`File e) ->
      Alcotest.(check string) "file found" "IMG3    DAT" e.Fat_types.name
  | _ -> Alcotest.fail "expected a file");
  (match Fat.resolve fs "/www/static" with
  | Some (`Dir d) -> Alcotest.(check string) "dir found" "/www/static" d.Fat.dname
  | _ -> Alcotest.fail "expected a dir");
  (match Fat.resolve fs "/www/static/../static/./img0.dat" with
  | Some (`File _) -> ()
  | _ -> Alcotest.fail "dot components");
  Alcotest.(check bool) "missing path" true (Fat.resolve fs "/www/nope/x" = None);
  Alcotest.(check bool) "fsck clean with nesting" true
    (Fat_check.ok (Fat_check.check fs))

let test_mkdir_path () =
  let _, fs = fat () in
  let c = Result.get_ok (Fat.mkdir_path fs "/a/b/c") in
  Alcotest.(check string) "deep dir created" "/a/b/c" c.Fat.dname;
  (* idempotent on existing components *)
  let c2 = Result.get_ok (Fat.mkdir_path fs "/a/b/c") in
  Alcotest.(check bool) "same handle" true (c == c2);
  Alcotest.(check bool) "intermediates registered" true
    (Fat.find_dir fs "/a/b" <> None)

(* Model-based property: a directory behaves like a name -> entry map
   under random add/remove/lookup sequences, and the volume stays
   fsck-clean throughout. *)
let prop_dir_matches_map =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> `Add i) (int_bound 25);
          map (fun i -> `Remove i) (int_bound 25);
          map (fun i -> `Lookup i) (int_bound 25);
        ])
  in
  QCheck2.Test.make ~name:"directory behaves like a map (and stays fsck-clean)"
    ~count:60
    QCheck2.Gen.(list_size (int_bound 120) op_gen)
    (fun ops ->
      let _, fs = fat () in
      let d = Result.get_ok (Fat.mkdir fs "m") in
      let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let name i = Printf.sprintf "k%d.dat" i in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | `Add i -> (
                let expected_ok = not (Hashtbl.mem model (name i)) in
                match Fat.add_file fs d ~name:(name i) ~size:i with
                | Ok () ->
                    Hashtbl.replace model (name i) i;
                    expected_ok
                | Error _ -> not expected_ok)
            | `Remove i ->
                let expected = Hashtbl.mem model (name i) in
                Hashtbl.remove model (name i);
                Fat.remove fs d (name i) = expected
            | `Lookup i -> (
                match (Fat.lookup_host fs d (name i), Hashtbl.find_opt model (name i)) with
                | Some e, Some size -> e.Fat_types.size = size
                | None, None -> true
                | Some _, None | None, Some _ -> false))
          ops
      in
      ok
      && List.length (Fat.readdir fs d) = Hashtbl.length model
      && Fat_check.ok (Fat_check.check fs))

(* The word-wise scan kernel against the byte-wise scan it replaced:
   end marker first, then a live slot (not 0xE5) whose 11 name bytes all
   match a name of exactly 11 bytes. Slots are built to hit every branch:
   end and deleted markers, the target itself (live or deleted), names
   differing from it in one byte (byte 10 included), and random bytes
   with the top bit set; names are sometimes not 11 bytes long. *)
let byte_wise_scan buf base per name =
  let name_eq off =
    String.length name = 11
    && List.for_all
         (fun j -> Bytes.get buf (off + j) = name.[j])
         (List.init 11 Fun.id)
  in
  let rec go i =
    if i >= per then -1
    else begin
      let off = base + (i * Fat_types.entry_bytes) in
      if Bytes.get buf off = Fat_types.end_marker then -(2 + i)
      else if Bytes.get buf off <> Fat_types.deleted_marker && name_eq off
      then i
      else go (i + 1)
    end
  in
  go 0

type slot_kind = Target | Deleted_target | One_byte_off of int | Random | End

let scan_case_gen =
  let open QCheck2.Gen in
  (* a small alphabet so random names collide, plus the two markers and
     bytes >= 0x80 *)
  let byte =
    oneofl [ 'A'; 'B'; ' '; '\x00'; '\xE5'; '\x80'; '\xFF'; '\xC1' ]
  in
  let name = string_size ~gen:byte (oneof [ pure 11; pure 11; int_bound 14 ]) in
  let kind =
    frequency
      [
        (3, pure Target);
        (2, pure Deleted_target);
        (3, map (fun j -> One_byte_off j) (oneof [ pure 10; int_bound 10 ]));
        (3, pure Random);
        (1, pure End);
      ]
  in
  let slot = pair kind (string_size ~gen:byte (pure 32)) in
  triple name (int_bound 3) (list_size (int_range 1 16) slot)

let prop_scan_matches_byte_wise =
  QCheck2.Test.make ~name:"word-wise scan_cluster = byte-wise scan"
    ~count:500 scan_case_gen (fun (name, which, slots) ->
      let img =
        Fat_image.create (mem ()) ~label:"scan" ~cluster_bytes:512
          ~total_clusters:4
      in
      (* any of the four clusters, the image's last one included *)
      let cluster = Fat_image.first_cluster_no + which in
      let buf = Fat_image.writable_block img cluster in
      let base = 0 in
      let target = if String.length name = 11 then name else "TARGET  DAT" in
      List.iteri
        (fun i (kind, noise) ->
          let off = base + (i * Fat_types.entry_bytes) in
          Bytes.blit_string noise 0 buf off 32;
          match kind with
          | Target -> Bytes.blit_string target 0 buf off 11
          | Deleted_target ->
              Bytes.blit_string target 0 buf off 11;
              Bytes.set buf off Fat_types.deleted_marker
          | One_byte_off j ->
              Bytes.blit_string target 0 buf off 11;
              let c = Char.code target.[j] in
              Bytes.set buf (off + j) (Char.chr ((c + 1 + (c land 7)) land 0xFF))
          | Random -> ()
          | End -> Bytes.set buf off Fat_types.end_marker)
        slots;
      let per = Fat_dir.entries_per_cluster img in
      Fat_dir.scan_cluster img cluster ~name83:name
      = byte_wise_scan buf base per name)

(* A directory made on a freed cluster starts empty: allocation gives a
   cluster that reads as zero, whatever the cluster held before. *)
let test_mkdir_on_freed_cluster_is_empty () =
  let _, fs = fat () in
  let a = Result.get_ok (Fat.mkdir fs "a") in
  Result.get_ok (Fat.populate fs [| a |] ~names83:(names83 "f" 2));
  Fat_image.free_chain (Fat.image fs) a.Fat.head;
  let b = Result.get_ok (Fat.mkdir fs "b") in
  Alcotest.(check int) "b reuses a's cluster" a.Fat.head b.Fat.head;
  Alcotest.(check int) "b lists no entries" 0 (List.length (Fat.readdir fs b))

(* Directories populated with the same names share their clusters'
   blocks; a write into one of them changes only that directory. *)
let test_shared_cluster_write_is_private () =
  let _, fs = fat () in
  let dirs =
    Array.init 3 (fun i -> Result.get_ok (Fat.mkdir fs (Printf.sprintf "d%d" i)))
  in
  Result.get_ok (Fat.populate fs dirs ~names83:(names83 "f" 40));
  let img = Fat.image fs in
  let block i = Fat_image.cluster_block img dirs.(i).Fat.head in
  let shared = block 0 in
  let content = Bytes.to_string shared in
  Alcotest.(check bool) "heads share one block" true
    (block 1 == shared && block 2 == shared);
  (* f3 sits in d1's head; new.dat goes to d2's third cluster *)
  Alcotest.(check bool) "remove from d1" true (Fat.remove fs dirs.(1) "f3.dat");
  Result.get_ok (Fat.add_file fs dirs.(2) ~name:"new.dat" ~size:7);
  Alcotest.(check bool) "d1's head copied, the others still shared" true
    (block 1 != shared && block 0 == shared && block 2 == shared);
  Alcotest.(check string) "the shared block is unchanged" content
    (Bytes.to_string shared);
  Alcotest.(check int) "d0 keeps its entries" 40 (List.length (Fat.readdir fs dirs.(0)));
  Alcotest.(check int) "d1 lost one" 39 (List.length (Fat.readdir fs dirs.(1)));
  Alcotest.(check int) "d2 gained one" 41 (List.length (Fat.readdir fs dirs.(2)));
  Alcotest.(check bool) "d1's entry gone" true (Fat.lookup_host fs dirs.(1) "f3.dat" = None);
  Alcotest.(check bool) "d0's entry kept" true (Fat.lookup_host fs dirs.(0) "f3.dat" <> None);
  Alcotest.(check bool) "fsck clean" true (Fat_check.ok (Fat_check.check fs))

(* ---------- the copy-on-write image against a flat reference ---------- *)

(* Run [f] with a handler that logs the reads and computes it performs
   and answers each at once: the charges of a simulated lookup, without
   an engine. *)
let charges_of f =
  let log = ref [] in
  let r =
    Effect.Deep.try_with f ()
      {
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | O2_runtime.Api.Read { addr; len } ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    log := Flat_fat.Read (addr, len) :: !log;
                    Effect.Deep.continue k 0)
            | O2_runtime.Api.Compute n ->
                Some
                  (fun (k : (a, _) Effect.Deep.continuation) ->
                    log := Flat_fat.Compute n :: !log;
                    Effect.Deep.continue k ())
            | _ -> None);
      }
  in
  (r, List.rev !log)

type model_op =
  | Mkdir of int
  | Populate of int list * int * int  (* dirs, first name, count *)
  | Add_file of int * int
  | Remove of int * int
  | Free of int

let print_model_op = function
  | Mkdir i -> Printf.sprintf "Mkdir %d" i
  | Populate (ds, lo, n) ->
      Printf.sprintf "Populate ([%s], %d, %d)"
        (String.concat ";" (List.map string_of_int ds)) lo n
  | Add_file (d, k) -> Printf.sprintf "Add_file (%d, %d)" d k
  | Remove (d, k) -> Printf.sprintf "Remove (%d, %d)" d k
  | Free d -> Printf.sprintf "Free %d" d

let model_names = 48

let model_op_gen =
  let open QCheck2.Gen in
  let dir = int_bound 7 and name = int_bound (model_names - 1) in
  frequency
    [
      (3, map (fun i -> Mkdir i) (int_bound 9));
      ( 3,
        map3
          (fun ds lo n -> Populate (ds, lo, n))
          (list_size (int_range 1 3) dir)
          (int_bound 16)
          (oneof [ int_bound 40; pure 16; pure 32 ]) );
      (3, map2 (fun d k -> Add_file (d, k)) dir name);
      (2, map2 (fun d k -> Remove (d, k)) dir name);
      (1, map (fun d -> Free d) dir);
    ]

let model_name k = Fat_name.to_83_exn (Printf.sprintf "k%d.dat" k)

(* Random mkdir / populate / add_file / remove / free_chain sequences over
   several directories on 512-byte clusters (16 entries each), on a
   volume small enough to fill up. After every step the operation's
   result, the whole image and every lookup's result and charges in
   every live directory match the flat reference. Populate makes clusters
   share blocks, and the later adds and removes write into them. *)
let prop_cow_image_matches_flat =
  QCheck2.Test.make ~name:"copy-on-write image = flat reference image"
    ~count:150
    ~print:QCheck2.Print.(list print_model_op)
    QCheck2.Gen.(list_size (int_bound 30) model_op_gen)
    (fun ops ->
      let fs = Fat.format (mem ()) ~label:"m" ~cluster_bytes:512 ~clusters:48 () in
      let img = Fat.image fs in
      let reference =
        Flat_fat.create
          ~mem_base:(Fat_image.fat_entry_addr img 0 - 512)
          ~cluster_bytes:512 ~total:48
      in
      (* live directories: real handle and reference head *)
      let live = ref [] in
      let pick d f =
        match !live with [] -> true | l -> f (List.nth l (d mod List.length l))
      in
      let step op =
        match op with
        | Mkdir i -> (
            let name = Printf.sprintf "d%d" i in
            match (Fat.mkdir fs name, Flat_fat.mkdir reference name) with
            | Ok d, Ok head ->
                live := !live @ [ (d, head) ];
                d.Fat.head = head
            | Error e, Error e' -> e = e'
            | _ -> false)
        | Populate (ds, lo, n) ->
            let names = Array.init n (fun k -> model_name ((lo + k) mod model_names)) in
            let chosen =
              match !live with
              | [] -> []
              | l -> List.map (fun d -> List.nth l (d mod List.length l)) ds
            in
            Fat.populate fs (Array.of_list (List.map fst chosen)) ~names83:names
            = Flat_fat.populate reference (List.map snd chosen) names
        | Add_file (d, k) ->
            pick d (fun (dir, head) ->
                Fat.add_file fs dir ~name:(Printf.sprintf "k%d.dat" k) ~size:k
                = Flat_fat.add reference ~head (Flat_fat.file (model_name k) k))
        | Remove (d, k) ->
            pick d (fun (dir, head) ->
                Fat.remove fs dir (Printf.sprintf "k%d.dat" k)
                = Flat_fat.remove reference ~head (model_name k))
        | Free d ->
            pick d (fun ((dir, head) as gone) ->
                Fat_image.free_chain img dir.Fat.head;
                Flat_fat.free_chain reference head;
                live := List.filter (fun x -> x != gone) !live;
                true)
      in
      let lookups_agree (dir, head) =
        List.for_all
          (fun name83 ->
            charges_of (fun () -> Fat.lookup_83 fs dir name83)
            = Flat_fat.lookup reference ~head
                ~compare_cycles:(Fat.compare_cycles fs) name83)
          (Fat_image.magic
          :: List.init 10 (fun i -> Fat_name.to_83_exn (Printf.sprintf "d%d" i))
          @ List.init model_names model_name)
      in
      List.for_all step ops
      && Bytes.equal (Fat_image.to_bytes img) reference.Flat_fat.buf
      && Fat_image.free_clusters img = reference.Flat_fat.free
      && List.for_all lookups_agree ((Fat.root fs, reference.Flat_fat.root) :: !live))

let suite =
  [
    Alcotest.test_case "8.3 encoding" `Quick test_name_encode;
    Alcotest.test_case "8.3 rejects invalid names" `Quick test_name_rejects;
    Alcotest.test_case "8.3 round-trips" `Quick test_name_roundtrip;
    Alcotest.test_case "name comparison is case-insensitive" `Quick test_name_equal_case_insensitive;
    QCheck_alcotest.to_alcotest prop_valid_names_roundtrip;
    Alcotest.test_case "entry encode/decode" `Quick test_entry_roundtrip;
    Alcotest.test_case "image geometry" `Quick test_image_geometry;
    Alcotest.test_case "chain alloc/follow/free" `Quick test_chain_alloc_follow_free;
    Alcotest.test_case "chain extension" `Quick test_chain_extension;
    Alcotest.test_case "allocation exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "chain cycles detected" `Quick test_chain_cycle_detected;
    Alcotest.test_case "dir add/find/remove/reuse" `Quick test_dir_add_find_remove;
    Alcotest.test_case "dir grows across clusters" `Quick test_dir_grows_across_clusters;
    QCheck_alcotest.to_alcotest prop_populate_matches_add;
    Alcotest.test_case "populate stops cleanly on a full volume" `Quick
      test_populate_volume_full;
    Alcotest.test_case "mkdir + host lookups" `Quick test_fat_mkdir_and_host_lookup;
    Alcotest.test_case "simulated lookup agrees with host" `Quick test_fat_sim_lookup_agrees_with_host;
    Alcotest.test_case "locked lookups serialize" `Quick test_fat_lookup_locked_serializes;
    Alcotest.test_case "fsck: clean and corrupted volumes" `Quick test_fsck_clean_and_detects_corruption;
    Alcotest.test_case "invalid names rejected" `Quick test_fat_rejects_invalid_names;
    Alcotest.test_case "directory object identity" `Quick test_dir_object_identity;
    Alcotest.test_case "nested directories and path resolution" `Quick test_nested_dirs_and_paths;
    Alcotest.test_case "mkdir_path" `Quick test_mkdir_path;
    QCheck_alcotest.to_alcotest prop_dir_matches_map;
    QCheck_alcotest.to_alcotest prop_scan_matches_byte_wise;
    Alcotest.test_case "mkdir on a freed cluster starts empty" `Quick
      test_mkdir_on_freed_cluster_is_empty;
    Alcotest.test_case "a write into a shared cluster stays private" `Quick
      test_shared_cluster_write_is_private;
    QCheck_alcotest.to_alcotest prop_cow_image_matches_flat;
  ]
