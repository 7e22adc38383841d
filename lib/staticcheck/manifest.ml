(* The hot-path manifest: functions whose bodies must not allocate. These
   are exactly the paths the Gc.minor_words probes in test/suite_hotpath.ml
   pin dynamically — the static pass checks every line of them, not just
   the call sites a probe happens to drive.

   The check is intraprocedural: a manifest function may call helpers
   (growth paths, raise paths) that allocate; what it may not do is
   construct blocks, capture closures, or build partial applications in
   its own body without an explicit [@alloc_ok "reason"] escape hatch. *)

type entry = { module_ : string; functions : string list }

let default =
  [
    (* innermost engine loop: three-parallel-array heap *)
    { module_ = "Event_queue";
      functions =
        [ "before"; "entry_before"; "move"; "set"; "sift_up"; "sift_down";
          "push"; "min_time"; "pop_min"; "length"; "is_empty" ] };
    (* the event loop around min_time/pop_min, and one event's dispatch *)
    { module_ = "Engine"; functions = [ "run"; "step" ] };
    (* flat extent lookup on every simulated access *)
    { module_ = "Memsys";
      functions = [ "find"; "bsearch"; "index_at"; "object_id_at" ] };
    (* DRAM controller queueing on every simulated miss to memory *)
    { module_ = "Dram"; functions = [ "fetch" ] };
    (* cache fill/evict int protocol *)
    { module_ = "Cache";
      functions =
        [ "probe"; "probe_run"; "contains"; "fill_evict"; "fill_absent";
          "drop"; "notify_fill"; "notify_remove" ] };
    { module_ = "Lru";
      functions =
        [ "find"; "mem"; "touch"; "unlink"; "push_front"; "add_evict";
          "insert_absent"; "link_absent"; "remove"; "map_key"; "unmap_node";
          "take_page"; "key_of"; "next_of"; "prev_of"; "set_next";
          "set_prev"; "touch_run"; "climb"; "splice_front"; "node_after" ] };
    (* the access walk itself: every simulated load and store *)
    { module_ = "Machine";
      functions =
        [ "line_of"; "read"; "write"; "read_below_l2"; "read_lines";
          "l2_run"; "end_l2_run"; "notify_run"; "write_lines";
          "dram_batch_loop"; "dram_batch_cost"; "fill_l3"; "l1_evicted";
          "l2_evicted"; "fill_private"; "core_still_holds";
          "invalidate_core_bits"; "invalidate_chip_bits"; "inval_words";
          "invalidate_others"; "notify_fill";
          "notify_remove"; "notify_access"; "fill_list"; "remove_list";
          "access_list" ] };
    (* flat per-line presence masks on the miss path of every simulated
       load: direct indexing, and the nearest core holder is a scan of
       the per-chip hop-distance class masks *)
    { module_ = "Presence";
      functions =
        [ "words_empty"; "line_empty"; "set_core"; "set_chip";
          "clear_core"; "clear_chip"; "core_word"; "chip_holders";
          "cached_anywhere"; "bit_index"; "class_word"; "class_scan";
          "nearest_core"; "nearest_chip_bits"; "nearest_chip_holder";
          "core_popcount" ] };
    (* the hop table behind every remote hit and DRAM fetch *)
    { module_ = "Topology";
      functions = [ "hops"; "remote_cache_latency"; "dram_latency" ] };
    (* FAT scan kernel: word-wise 8.3 compare + packed scan + chain step,
       the simulated lookup's walk and charges around it, and the image's
       cluster-block and FAT accessors they read through *)
    { module_ = "Fat_types"; functions = [ "is_end"; "is_deleted" ] };
    { module_ = "Fat_dir";
      functions =
        [ "name_matches"; "scan_slots"; "checked_block"; "scan_cluster";
          "decode_at"; "locate"; "find"; "charge"; "lookup_walk";
          "lookup_sim" ] };
    { module_ = "Fat_image";
      functions =
        [ "valid_cluster"; "check_cluster"; "cluster_block"; "cluster_addr";
          "fat_entry_addr"; "fat_get"; "next_cluster" ] };
    (* monitor indexes: O(active set) iteration and accounting *)
    { module_ = "Object_table";
      functions =
        [ "iter_links"; "iter_assigned"; "fold_links"; "fold_assigned";
          "note_op"; "iter_active_links"; "iter_active"; "drain_links";
          "drain_active"; "fits"; "assigned_count"; "active_count" ] };
    (* quiet monitor period *)
    { module_ = "Rebalancer";
      functions = [ "step"; "demotion_pressure"; "decisions_on" ] };
    (* recorder-off probe emission *)
    { module_ = "Probe"; functions = [ "emit"; "notify"; "active" ] };
    (* native backend: the steal loop, cross-domain delivery and worker
       dispatch run on every real-domain operation — the dummy-sentinel
       protocol exists precisely so these stay allocation-free *)
    { module_ = "Deque";
      functions = [ "push"; "pop"; "steal"; "length"; "is_empty" ] };
    { module_ = "Inbox";
      functions =
        [ "drain_into"; "chain_length"; "fill_scratch"; "apply_scratch";
          "is_empty" ] };
    { module_ = "Native_pool";
      functions =
        [ "loop"; "sweep"; "run_task"; "post"; "notify"; "park"; "finish";
          "current_domain"; "pass"; "await_grace" ] };
    (* padded per-domain counter rows and kv bucket rows: every word the
       homed op path writes goes through these *)
    { module_ = "Pad_row";
      functions = [ "length"; "get"; "set"; "incr"; "find_in" ] };
    (* the probe kernel every native kv/dir op runs (a C external, so
       the pass checks it is [@@noalloc]), and the programs' op bodies
       around it (in their functors): closed, so an op builds no
       closure *)
    { module_ = "Int_scan"; functions = [ "first" ] };
    { module_ = "Backend_kv";
      functions = [ "scan"; "get_body"; "put_body"; "delete_body"; "charge" ] };
    { module_ = "Backend_dir"; functions = [ "lookup_body" ] };
    { module_ = "Native_backend";
      functions =
        [ "with_op"; "exec"; "sink"; "claim_home"; "touch"; "compute";
          "delta" ] };
    (* native telemetry writers: every call site in the pool/backend is
       guarded by a cached bool, and when the recorder IS on the writers
       must still be flat int stores — ring append, counter bumps, and a
       clock read through an untagged C stub. *)
    { module_ = "Telemetry";
      functions =
        [ "now_ns"; "record_at"; "note_steal"; "note_park";
          "note_wake"; "note_inbox_batch"; "note_spawned"; "op_submit";
          "note_ship_out"; "note_ship_in"; "note_start"; "note_end";
          "observe_home"; "observe_shipped"; "observe_ship_delay";
          "observe_exec"; "note_rebalance"; "note_quiesce"; "enabled";
          "sink_at" ] };
    (* the one log2 histogram add path: the native telemetry writers'
       latency observations end here *)
    { module_ = "Hist"; functions = [ "add"; "bucket_of"; "significant_bits" ] };
  ]

let functions_for manifest ~module_ =
  match List.find_opt (fun e -> e.module_ = module_) manifest with
  | Some e -> e.functions
  | None -> []

let total_functions manifest =
  List.fold_left (fun acc e -> acc + List.length e.functions) 0 manifest
