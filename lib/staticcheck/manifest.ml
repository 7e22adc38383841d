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
        [ "before"; "swap"; "sift_up"; "sift_down"; "push"; "min_time";
          "pop_min"; "length"; "is_empty" ] };
    (* the event loop around min_time/pop_min *)
    { module_ = "Engine"; functions = [ "run" ] };
    (* flat extent lookup on every simulated access *)
    { module_ = "Memsys";
      functions = [ "find"; "bsearch"; "index_at"; "object_id_at" ] };
    (* cache fill/evict int protocol *)
    { module_ = "Cache";
      functions = [ "probe"; "fill_evict"; "invalidate"; "drop"; "notify_remove" ] };
    { module_ = "Lru";
      functions =
        [ "probe_from"; "probe"; "find_slot"; "mem"; "touch"; "unlink";
          "push_front"; "install"; "add_evict"; "remove"; "backward_shift";
          "table_delete_at"; "table_remove"; "next_of"; "prev_of";
          "pack_link"; "set_next"; "set_prev"; "hash" ] };
    (* the access walk itself: every simulated load and store *)
    { module_ = "Machine";
      functions =
        [ "line_of"; "read"; "write"; "read_line"; "read_lines";
          "write_lines"; "dram_batch_loop"; "dram_batch_cost"; "fill_l1";
          "fill_l2"; "fill_l3"; "fill_private"; "core_still_holds";
          "invalidate_core_bits"; "invalidate_chip_bits"; "inval_words";
          "invalidate_others"; "notify_fill";
          "notify_remove"; "notify_access"; "fill_list"; "remove_list";
          "access_list" ] };
    (* flat per-line presence masks on the miss path of every simulated
       load: direct indexing, so the old hash-probe helpers are gone *)
    { module_ = "Presence";
      functions =
        [ "words_empty"; "line_empty"; "set_core"; "set_chip";
          "clear_core"; "clear_chip"; "core_word"; "chip_holders";
          "cached_anywhere"; "bit_index"; "nearest_core_bits";
          "nearest_core_words"; "nearest_core_holder"; "nearest_chip_bits";
          "nearest_chip_holder"; "core_popcount" ] };
    (* FAT scan kernel: in-place 8.3 compare + packed scan + chain step *)
    { module_ = "Fat_types";
      functions = [ "is_end"; "is_deleted"; "name_eq_from"; "name_matches" ] };
    { module_ = "Fat_dir"; functions = [ "scan_slots"; "scan_cluster" ] };
    { module_ = "Fat_image"; functions = [ "next_cluster" ] };
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
          "current_domain"; "publish"; "await_vacant" ] };
    (* padded per-domain counter rows and kv bucket rows: every word the
       homed op path writes goes through these *)
    { module_ = "Pad_row"; functions = [ "length"; "get"; "set"; "incr" ] };
    { module_ = "Native_backend";
      functions =
        [ "with_op"; "exec"; "local_read"; "claim"; "touch"; "compute";
          "delta" ] };
    (* native telemetry writers: every call site in the pool/backend is
       guarded by a cached bool, and when the recorder IS on the writers
       must still be flat int stores — ring append, counter bumps,
       bucket increments, and a clock read through an untagged C stub. *)
    { module_ = "Telemetry";
      functions =
        [ "now_ns"; "record_at"; "observe"; "bucket_of"; "note_steal"; "note_park";
          "note_wake"; "note_inbox_batch"; "note_spawned"; "op_submit";
          "note_ship_out"; "note_ship_in"; "note_start"; "note_end";
          "observe_home"; "observe_shipped"; "observe_ship_delay";
          "observe_exec"; "note_rebalance"; "note_quiesce"; "enabled";
          "token_sink"; "token_seq" ] };
  ]

let functions_for manifest ~module_ =
  match List.find_opt (fun e -> e.module_ = module_) manifest with
  | Some e -> e.functions
  | None -> []

let total_functions manifest =
  List.fold_left (fun acc e -> acc + List.length e.functions) 0 manifest
