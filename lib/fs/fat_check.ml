type report = {
  directories : int;
  files : int;
  clusters_used : int;
  problems : string list;
}

let ok r = r.problems = []

let check fs =
  let img = Fat.image fs in
  let buf = Fat_image.header img in
  let problems = ref [] in
  let problem fmt =
    Format.kasprintf (fun s -> problems := s :: !problems) fmt
  in
  (* Boot record. *)
  if Bytes.sub_string buf 0 (String.length Fat_image.magic) <> Fat_image.magic
  then problem "bad magic";
  if Fat_types.get32 buf 8 <> Fat_image.cluster_bytes img then
    problem "boot record cluster size disagrees with image";
  if Fat_types.get32 buf 12 <> Fat_image.total_clusters img then
    problem "boot record cluster count disagrees with image";
  (* FAT cell sanity + used-cluster census. *)
  let first = Fat_image.first_cluster_no in
  let limit = first + Fat_image.total_clusters img in
  let used = ref 0 in
  let link_target_of = Hashtbl.create 256 in
  for c = first to limit - 1 do
    let v = Fat_image.fat_get img c in
    if v <> Fat_types.fat_free then incr used;
    if v <> Fat_types.fat_free && v <> Fat_types.fat_eoc && v <> Fat_types.fat_bad
    then begin
      if not (Fat_image.valid_cluster img v) then
        problem "cluster %d links to invalid cluster %d" c v
      else begin
        (match Hashtbl.find_opt link_target_of v with
        | Some prev -> problem "clusters %d and %d both link to %d" prev c v
        | None -> ());
        Hashtbl.replace link_target_of v c
      end
    end
  done;
  if !used <> Fat_image.total_clusters img - Fat_image.free_clusters img then
    problem "free count %d inconsistent with FAT census %d"
      (Fat_image.free_clusters img)
      !used;
  (* Walk the tree. *)
  let seen = Hashtbl.create 256 in
  let claim_chain owner head =
    match Fat_image.chain img head with
    | exception Failure msg -> problem "%s: %s" owner msg
    | clusters ->
        List.iter
          (fun c ->
            match Hashtbl.find_opt seen c with
            | Some other ->
                problem "cluster %d claimed by both %s and %s" c other owner
            | None -> Hashtbl.replace seen c owner)
          clusters
  in
  let ndirs = ref 0 and nfiles = ref 0 in
  let rec walk_dir name head =
    incr ndirs;
    claim_chain ("dir " ^ name) head;
    let entries =
      (* a corrupt chain was already reported by claim_chain; just skip *)
      match Fat_dir.list img ~head with
      | entries -> entries
      | exception Failure _ -> []
    in
    List.iter
      (fun e ->
        let ename = Fat_name.of_83 e.Fat_types.name in
        (* 8.3 names are printable ASCII padded with spaces. *)
        if
          String.exists
            (fun ch -> not (ch = ' ' || (Char.code ch > 0x20 && Char.code ch < 0x7F)))
            e.Fat_types.name
        then problem "dir %s: entry %S has an unprintable name" name ename;
        if e.Fat_types.attr land Fat_types.attr_directory <> 0 then begin
          if not (Fat_image.valid_cluster img e.Fat_types.first_cluster) then
            problem "dir %s: subdir %s has bad first cluster %d" name ename
              e.Fat_types.first_cluster
          else walk_dir ename e.Fat_types.first_cluster
        end
        else begin
          incr nfiles;
          if e.Fat_types.first_cluster <> 0 then
            claim_chain ("file " ^ ename) e.Fat_types.first_cluster
        end)
      entries
  in
  walk_dir "/" (Fat.root fs).Fat.head;
  {
    directories = !ndirs;
    files = !nfiles;
    clusters_used = !used;
    problems = List.rev !problems;
  }
