let slot_bytes = 16 (* 8-byte key + 8-byte value, as in Kv_store *)

(* A bucket's mutable state is one padded row: word 0 is the used count,
   then [slots] keys, then [slots] values. The record is never written,
   so an op on one bucket touches no line that an op on a bucket homed
   elsewhere writes (DESIGN.md, "Home-isolated layout"). The helpers sit
   outside the functor so the op closures need not capture them, and are
   forced inline so the probe loop makes no call per slot. *)
type bucket = { obj : int;  (* backend object handle *) row : Pad_row.t }

let[@inline] used bk = Pad_row.get bk.row 0
let[@inline] set_used bk n = Pad_row.set bk.row 0 n
let[@inline] key_at bk i = Pad_row.get bk.row (1 + i)
let[@inline] value_at ~slots bk i = Pad_row.get bk.row (1 + slots + i)
let[@inline] set_value ~slots bk i v = Pad_row.set bk.row (1 + slots + i) v

let[@inline] set_slot ~slots bk i ~key ~value =
  Pad_row.set bk.row (1 + i) key;
  set_value ~slots bk i value

(* Pure probe: the slot holding [key], or -1. No backend calls — see
   the .mli on why the logical section must stay effect-free. A
   top-level loop, so a probe allocates no closure. *)
let rec scan_from bk ~key n i =
  if i >= n then -1
  else if key_at bk i = key then i
  else scan_from bk ~key n (i + 1)

let[@inline] scan bk ~key = scan_from bk ~key (used bk) 0

module Make (B : O2_runtime.Backend_intf.S) = struct
  type t = {
    b : B.t;
    bucket_arr : bucket array;
    slots : int;
    mask : int;  (* [buckets - 1] for a power-of-two count, else -1 *)
  }

  let create b ~name ~buckets ~slots_per_bucket () =
    if buckets <= 0 || slots_per_bucket <= 0 then
      invalid_arg "Backend_kv.create: buckets and slots must be positive";
    let bucket_bytes = slots_per_bucket * slot_bytes in
    let make_bucket i =
      {
        obj =
          B.register b ~size:bucket_bytes
            ~name:(Printf.sprintf "%s.b%d" name i);
        row = Pad_row.make (1 + (2 * slots_per_bucket));
      }
    in
    {
      b;
      bucket_arr = Array.init buckets make_bucket;
      slots = slots_per_bucket;
      mask = (if buckets land (buckets - 1) = 0 then buckets - 1 else -1);
    }

  let buckets t = Array.length t.bucket_arr

  (* [h] is nonnegative, so for a power-of-two count the mask picks the
     same bucket as [mod] without a division. *)
  let bucket_of_key t key =
    let h = key * 0x2545F491 land max_int in
    if t.mask >= 0 then h land t.mask else h mod buckets t

  let bucket_obj t i = t.bucket_arr.(i).obj

  (* The cost a linear probe of [probed] slots would incur, charged once
     the logical section is decided (mirrors Kv_store.scan_sim). Only a
     priced backend is called: on native the probe itself is the cost. *)
  let charge t bk ~probed ~wrote =
    if B.priced then begin
      if probed > 0 then
        B.touch t.b ~write:false ~obj:bk.obj ~off:0 ~len:(probed * slot_bytes);
      B.compute t.b (2 * Int.max probed 1);
      if wrote >= 0 then
        B.touch t.b ~write:true ~obj:bk.obj ~off:(wrote * slot_bytes)
          ~len:slot_bytes
    end

  let get t ~key =
    let bk = t.bucket_arr.(bucket_of_key t key) in
    B.with_op t.b bk.obj (fun () ->
        let i = scan bk ~key in
        let result = if i >= 0 then value_at ~slots:t.slots bk i else -1 in
        let probed = if i >= 0 then i + 1 else used bk in
        charge t bk ~probed ~wrote:(-1);
        result)

  let put t ~key ~value =
    let bk = t.bucket_arr.(bucket_of_key t key) in
    B.with_op t.b ~write:true bk.obj (fun () ->
        let i = scan bk ~key in
        let n = used bk in
        let probed = if i >= 0 then i + 1 else n in
        let wrote =
          if i >= 0 then begin
            set_value ~slots:t.slots bk i value;
            i
          end
          else if n >= t.slots then -1
          else begin
            set_slot ~slots:t.slots bk n ~key ~value;
            set_used bk (n + 1);
            n
          end
        in
        charge t bk ~probed ~wrote;
        wrote >= 0)

  let delete t ~key =
    let bk = t.bucket_arr.(bucket_of_key t key) in
    B.with_op t.b ~write:true bk.obj (fun () ->
        let i = scan bk ~key in
        let probed = if i >= 0 then i + 1 else used bk in
        if i < 0 then begin
          charge t bk ~probed ~wrote:(-1);
          false
        end
        else begin
          let last = used bk - 1 in
          set_slot ~slots:t.slots bk i ~key:(key_at bk last)
            ~value:(value_at ~slots:t.slots bk last);
          set_used bk last;
          charge t bk ~probed ~wrote:i;
          true
        end)

  let size t = Array.fold_left (fun acc bk -> acc + used bk) 0 t.bucket_arr

  let guards_clear t =
    Array.for_all (fun bk -> Pad_row.guards_clear bk.row) t.bucket_arr
end
