type dir = { dname : string; head : int; lock : O2_runtime.Spinlock.t }

type t = {
  img : Fat_image.t;
  mem : O2_simcore.Memsys.t;
  root_ : dir;
  by_name : (string, dir) Hashtbl.t;
  mutable created : dir list;  (* reverse creation order, root excluded *)
  mutable compare_cycles_ : int;
}

let format mem ~label ?(cluster_bytes = 4096) ~clusters () =
  let img = Fat_image.create mem ~label ~cluster_bytes ~total_clusters:clusters in
  let root_head =
    match Fat_image.alloc_cluster img ~prev:None with
    | Some c -> c
    | None -> invalid_arg "Fat.format: volume too small for a root directory"
  in
  let root_ =
    {
      dname = "/";
      head = root_head;
      lock = O2_runtime.Spinlock.create mem ~name:(label ^ ":lock:/");
    }
  in
  {
    img;
    mem;
    root_;
    by_name = Hashtbl.create 64;
    created = [];
    compare_cycles_ = 2;
  }

let image t = t.img
let root t = t.root_
let compare_cycles t = t.compare_cycles_

let set_compare_cycles t c =
  if c < 0 then invalid_arg "Fat.set_compare_cycles";
  t.compare_cycles_ <- c

let child_path parent name =
  if parent = "/" then "/" ^ name else parent ^ "/" ^ name

let mkdir_in t parent name =
  match Fat_name.to_83 name with
  | Error e -> Error e
  | Ok name83 -> (
      let path = child_path parent.dname name in
      if Hashtbl.mem t.by_name path then Error ("directory exists: " ^ path)
      else
        match Fat_image.alloc_cluster t.img ~prev:None with
        | None -> Error "volume full"
        | Some head -> (
            let entry =
              {
                Fat_types.name = name83;
                attr = Fat_types.attr_directory;
                first_cluster = head;
                size = 0;
              }
            in
            match Fat_dir.add t.img ~head:parent.head entry with
            | Error e ->
                Fat_image.free_chain t.img head;
                Error e
            | Ok () ->
                let d =
                  {
                    dname = path;
                    head;
                    lock =
                      O2_runtime.Spinlock.create t.mem ~name:("lock:" ^ path);
                  }
                in
                Hashtbl.add t.by_name path d;
                t.created <- d :: t.created;
                Ok d))

let mkdir t name = mkdir_in t t.root_ name

let find_dir t name =
  if name = "/" || name = "" then Some t.root_
  else
    match Hashtbl.find_opt t.by_name name with
    | Some _ as d -> d
    | None ->
        if String.length name > 0 && name.[0] <> '/' then
          Hashtbl.find_opt t.by_name ("/" ^ name)
        else None

let parent_path path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

let parent t d = if d.dname = "/" then None else find_dir t (parent_path d.dname)

(* Split "/a/./../b" into live components, resolving dots against the
   directory-handle registry. *)
let walk_components t path =
  let parts = List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path) in
  let rec go dir = function
    | [] -> Some (`Dir dir)
    | ".." :: rest -> go (Option.value ~default:t.root_ (parent t dir)) rest
    | [ last ] -> Some (`Last (dir, last))
    | comp :: rest -> (
        match find_dir t (child_path dir.dname comp) with
        | Some sub -> go sub rest
        | None -> None)
  in
  go t.root_ parts

let classify t dir entry name =
  if entry.Fat_types.attr land Fat_types.attr_directory <> 0 then
    match find_dir t (child_path dir.dname name) with
    | Some sub -> Some (`Dir sub)
    | None -> None
  else Some (`File entry)

let resolve t path =
  match walk_components t path with
  | None -> None
  | Some (`Dir d) -> Some (`Dir d)
  | Some (`Last (dir, name)) -> (
      match Fat_name.to_83 name with
      | Error _ -> None
      | Ok name83 -> (
          match Fat_dir.find t.img ~head:dir.head ~name83 with
          | None -> None
          | Some entry -> classify t dir entry name))

let resolve_sim t ?(locked = true) path =
  (* like {!resolve} but every component scan runs through the simulated
     memory system; intermediate components cost a locked scan too *)
  let scan_dir dir name83 =
    if locked then begin
      O2_runtime.Api.lock dir.lock;
      let r =
        Fat_dir.lookup_sim t.img ~head:dir.head ~name83
          ~compare_cycles:t.compare_cycles_
      in
      O2_runtime.Api.unlock dir.lock;
      r
    end
    else
      Fat_dir.lookup_sim t.img ~head:dir.head ~name83
        ~compare_cycles:t.compare_cycles_
  in
  let parts =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)
  in
  let rec go dir = function
    | [] -> Some (`Dir dir)
    | ".." :: rest -> go (Option.value ~default:t.root_ (parent t dir)) rest
    | comp :: rest -> (
        match Fat_name.to_83 comp with
        | Error _ -> None
        | Ok name83 -> (
            match scan_dir dir name83 with
            | None -> None
            | Some entry -> (
                match classify t dir entry comp with
                | Some (`Dir sub) -> if rest = [] then Some (`Dir sub) else go sub rest
                | Some (`File _) as file -> if rest = [] then file else None
                | None -> None)))
  in
  go t.root_ parts

let mkdir_path t path =
  let parts =
    List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)
  in
  if parts = [] then Error "mkdir_path: empty path"
  else begin
    let rec go dir = function
      | [] -> Ok dir
      | comp :: rest -> (
          match find_dir t (child_path dir.dname comp) with
          | Some sub -> go sub rest
          | None -> (
              match mkdir_in t dir comp with
              | Ok sub -> go sub rest
              | Error e -> Error e))
    in
    go t.root_ parts
  end
let dirs t = List.rev t.created

let add_file t d ~name ~size =
  match Fat_name.to_83 name with
  | Error e -> Error e
  | Ok name83 ->
      Fat_dir.add t.img ~head:d.head
        {
          Fat_types.name = name83;
          attr = Fat_types.attr_archive;
          first_cluster = 0;
          size;
        }

let populate t dirs ~names83 =
  (* Every directory gets the same entries: encode them once into one run
     and blit it into each chain. Names are fresh by construction, so no
     per-entry duplicate scans (population is O(n), not O(n^2)). *)
  let run = Bytes.create (Array.length names83 * Fat_types.entry_bytes) in
  Array.iteri
    (fun i name ->
      Fat_types.encode_entry
        {
          Fat_types.name;
          attr = Fat_types.attr_archive;
          first_cluster = 0;
          size = 0;
        }
        run
        ~off:(i * Fat_types.entry_bytes))
    names83;
  let rec fill i =
    if i >= Array.length dirs then Ok ()
    else
      match Fat_dir.append_bulk t.img ~head:dirs.(i).head run with
      | Error e -> Error e
      | Ok () -> fill (i + 1)
  in
  fill 0

let lookup t d name =
  match Fat_name.to_83 name with
  | Error _ -> None
  | Ok name83 ->
      Fat_dir.lookup_sim t.img ~head:d.head ~name83
        ~compare_cycles:t.compare_cycles_

let lookup_locked t d name =
  O2_runtime.Api.lock d.lock;
  let result = lookup t d name in
  O2_runtime.Api.unlock d.lock;
  result

let lookup_83 t d name83 =
  Fat_dir.lookup_sim t.img ~head:d.head ~name83
    ~compare_cycles:t.compare_cycles_

let lookup_locked_83 t d name83 =
  O2_runtime.Api.lock d.lock;
  let result = lookup_83 t d name83 in
  O2_runtime.Api.unlock d.lock;
  result

let lookup_host t d name =
  match Fat_name.to_83 name with
  | Error _ -> None
  | Ok name83 -> Fat_dir.find t.img ~head:d.head ~name83

let readdir t d = Fat_dir.list t.img ~head:d.head

let remove t d name =
  match Fat_name.to_83 name with
  | Error _ -> false
  | Ok name83 -> Fat_dir.remove t.img ~head:d.head ~name83

let dir_base_addr t d = Fat_image.cluster_addr t.img d.head

let dir_clusters t d = Fat_image.chain t.img d.head

let dir_bytes t d =
  List.length (dir_clusters t d) * Fat_image.cluster_bytes t.img
