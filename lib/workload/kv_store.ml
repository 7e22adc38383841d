open O2_runtime

let slot_bytes = 16  (* 8-byte key + 8-byte value *)

type bucket = {
  addr : int;
  lock : Spinlock.t;
  keys : int array;
  values : int array;
  mutable used : int;
}

type t = {
  ct : Coretime.t;
  bucket_arr : bucket array;
  slots : int;
  mutable size_ : int;
}

let create ct ?(pid = 0) ~name ~buckets ~slots_per_bucket () =
  if buckets <= 0 || slots_per_bucket <= 0 then
    invalid_arg "Kv_store.create: buckets and slots must be positive";
  let engine = Coretime.engine ct in
  let mem = O2_simcore.Machine.memory (Engine.machine engine) in
  let bucket_bytes = slots_per_bucket * slot_bytes in
  let make_bucket i =
    let ext =
      O2_simcore.Memsys.alloc mem
        ~name:(Printf.sprintf "%s.bucket%d" name i)
        ~size:bucket_bytes
    in
    let addr = ext.O2_simcore.Memsys.base in
    ignore
      (Coretime.register ct ~pid ~base:addr ~size:bucket_bytes
         ~name:(Printf.sprintf "%s.b%d" name i) ());
    {
      addr;
      lock = Spinlock.create mem ~name:(Printf.sprintf "%s.lock%d" name i);
      keys = Array.make slots_per_bucket 0;
      values = Array.make slots_per_bucket 0;
      used = 0;
    }
  in
  {
    ct;
    bucket_arr = Array.init buckets make_bucket;
    slots = slots_per_bucket;
    size_ = 0;
  }

let buckets t = Array.length t.bucket_arr

let bucket_of_key t key =
  let h = key * 0x2545F491 land max_int in
  h mod buckets t

(* Scan the bucket's slots for a key, charging the bytes a linear probe
   would touch. Returns the slot index. *)
let scan_sim b ~key =
  let rec go i = if i >= b.used then None else if b.keys.(i) = key then Some i else go (i + 1) in
  let hit = go 0 in
  let probed = match hit with Some i -> i + 1 | None -> b.used in
  if probed > 0 then ignore (Api.read ~addr:b.addr ~len:(probed * slot_bytes));
  Api.compute (2 * Int.max probed 1);
  hit

let get t ~key =
  let b = t.bucket_arr.(bucket_of_key t key) in
  Coretime.with_op t.ct b.addr (fun () ->
      Api.lock b.lock;
      let result =
        match scan_sim b ~key with
        | Some i ->
            ((Some b.values.(i))
            [@alloc_ok
              "one result option under the bucket lock; simulated time does \
               not observe GC"])
        | None -> None
      in
      Api.unlock b.lock;
      result)

let put t ~key ~value =
  let b = t.bucket_arr.(bucket_of_key t key) in
  Coretime.with_op t.ct ~write:true b.addr (fun () ->
      Api.lock b.lock;
      let ok =
        match scan_sim b ~key with
        | Some i ->
            b.values.(i) <- value;
            ignore (Api.write ~addr:(b.addr + (i * slot_bytes)) ~len:slot_bytes);
            true
        | None ->
            if b.used >= t.slots then false
            else begin
              let i = b.used in
              b.keys.(i) <- key;
              b.values.(i) <- value;
              b.used <- b.used + 1;
              t.size_ <- t.size_ + 1;
              ignore
                (Api.write ~addr:(b.addr + (i * slot_bytes)) ~len:slot_bytes);
              true
            end
      in
      Api.unlock b.lock;
      ok)

let delete t ~key =
  let b = t.bucket_arr.(bucket_of_key t key) in
  Coretime.with_op t.ct ~write:true b.addr (fun () ->
      Api.lock b.lock;
      let ok =
        match scan_sim b ~key with
        | None -> false
        | Some i ->
            let last = b.used - 1 in
            b.keys.(i) <- b.keys.(last);
            b.values.(i) <- b.values.(last);
            b.used <- last;
            t.size_ <- t.size_ - 1;
            ignore (Api.write ~addr:(b.addr + (i * slot_bytes)) ~len:slot_bytes);
            true
      in
      Api.unlock b.lock;
      ok)

let size t = t.size_
let mem_bytes t = buckets t * t.slots * slot_bytes
