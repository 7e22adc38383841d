(* Telemetry sinks: the flight recorder's capture. On the native backend
   every writer owns a sink nobody else touches: worker d writes
   sinks.(d), the coordinator writes sinks.(domains), and readers only
   look at quiescence (drain returned, pool idle). No atomics, no locks,
   no cross-domain writes on the hot path. The simulator's recorder (a
   Probe listener) writes one sink per simulated core and the monitor's
   in the coordinator slot, stamped with simulated cycles.

   Each sink is a flat int-array ring of fixed-width records stamped with
   CLOCK_MONOTONIC nanoseconds (a noalloc C stub) or, on the simulator,
   the probe event's cycle. The stamp is clamped per-writer to be
   nondecreasing, so a sink's ring is sorted by construction and the
   k-way merge in O2_obs.Capture needs no sort.
   When a ring is full new records are dropped (drop-newest) and counted
   per sink — the retained window is a prefix, never a torn middle.

   Latency aggregation does not ride the ring: with_op carries its own
   timestamps in locals across domain handoffs (they live in the shipped
   continuation) and feeds log2-bucket accumulators on the sink where
   the op ended. That is what makes metrics-only telemetry cheap enough
   to leave attached during throughput measurement: two clock reads and
   a few int-array writes per op, no ring traffic at all.

   Zero-cost when off: the disabled singleton never reaches a clock read
   or a ring write because every call site in lib/native is guarded by
   [enabled]; the guard plus the argument loads are branch + int reads,
   pinned allocation-free by suite_hotpath and the o2staticcheck
   manifest.

   This library is built with [-inline 200] for the simulator's engine,
   which would make the writers below inlinable into lib/native's hot
   functions. Their bodies sit behind the [enabled] guard there and only
   bloat the code around it ([Native_backend.exec] grew from 1.5 KB to
   3.7 KB and native_dir lost ~8% of its ops/s), so the writers the
   native backend calls that the default [-inline] would not inline are
   marked [@inline never]. *)

let buckets = 63
(* Same log2 layout as O2_obs.Hist: bucket 0 holds 0, bucket k >= 1
   holds [2^(k-1), 2^k). Hist.of_raw imports these verbatim. *)

type acc = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let make_acc () =
  { counts = Array.make buckets 0; total = 0; sum = 0; min_v = max_int; max_v = 0 }

(* Top-level so bucket_of allocates no closure (it is manifest-pinned). *)
let rec significant_bits acc v =
  if v = 0 then acc else significant_bits (acc + 1) (v lsr 1)

let bucket_of v = significant_bits 0 v

let[@inline never] observe a v =
  let v = if v < 0 then 0 else v in
  a.counts.(bucket_of v) <- a.counts.(bucket_of v) + 1;
  a.total <- a.total + 1;
  a.sum <- a.sum + v;
  if v < a.min_v then a.min_v <- v;
  if v > a.max_v then a.max_v <- v

let acc_counts a = a.counts
let acc_total a = a.total
let acc_sum a = a.sum
let acc_min a = a.min_v
let acc_max a = a.max_v

type kind =
  | Steal  (* a = victim domain *)
  | Park
  | Wake
  | Inbox_batch  (* a = tasks delivered by one drain *)
  | Spawned  (* a = target domain *)
  | Submit  (* a = token, b = obj *)
  | Ship_out  (* a = token, b = obj, c = destination domain *)
  | Ship_in  (* a = token, b = obj, c = source domain *)
  | Start  (* a = token, b = obj, c = home core, -1 if none *)
  | End  (* a = token, b = obj *)
  | Rebalance  (* a = moves, b = demotions *)
  | Quiesce
  | Decision  (* a = decision kind, b = obj, c = core *)

let int_of_kind = function
  | Steal -> 0
  | Park -> 1
  | Wake -> 2
  | Inbox_batch -> 3
  | Spawned -> 4
  | Submit -> 5
  | Ship_out -> 6
  | Ship_in -> 7
  | Start -> 8
  | End -> 9
  | Rebalance -> 10
  | Quiesce -> 11
  | Decision -> 12

let kind_of_int = function
  | 0 -> Steal
  | 1 -> Park
  | 2 -> Wake
  | 3 -> Inbox_batch
  | 4 -> Spawned
  | 5 -> Submit
  | 6 -> Ship_out
  | 7 -> Ship_in
  | 8 -> Start
  | 9 -> End
  | 10 -> Rebalance
  | 11 -> Quiesce
  | 12 -> Decision
  | k -> invalid_arg (Printf.sprintf "Telemetry.kind_of_int: %d" k)

(* Record width: ts, kind, a, b, c. *)
let width = 5

type sink = {
  id : int;
  sample : int;  (* 0 = span events never enter the ring; N = 1-in-N ops *)
  buf : int array;  (* cap * width *)
  cap : int;  (* records, not ints *)
  mutable len : int;
  mutable drops : int;
  mutable last_ts : int;
  mutable seq : int;  (* ops submitted from this sink, tokens minted here *)
  mutable steals : int;
  mutable ships_out : int;
  mutable ships_in : int;
  mutable parks : int;
  mutable wakes : int;
  mutable spawns : int;
  mutable inbox_batches : int;
  mutable inbox_tasks : int;
  mutable max_batch : int;
  lat_home : acc;
  lat_shipped : acc;
  lat_ship_delay : acc;  (* submit -> start, shipped ops only *)
  lat_exec : acc;  (* start -> end, all ops *)
}

type clock = Wall_ns | Cycles of float

type t = {
  enabled : bool;
  clock : clock;
  domains : int;
  sample : int;
  sinks : sink array;  (* domains + 1; index [domains] is the coordinator *)
}

(* Tokens pack (minting sink, sequence) so a span's events can be joined
   across domains: token = seq * max_sinks + id. *)
let max_sinks = 1024

let make_sink ~id ~sample ~cap =
  {
    id;
    sample;
    buf = Array.make (cap * width) 0;
    cap;
    len = 0;
    drops = 0;
    last_ts = 0;
    seq = 0;
    steals = 0;
    ships_out = 0;
    ships_in = 0;
    parks = 0;
    wakes = 0;
    spawns = 0;
    inbox_batches = 0;
    inbox_tasks = 0;
    max_batch = 0;
    lat_home = make_acc ();
    lat_shipped = make_acc ();
    lat_ship_delay = make_acc ();
    lat_exec = make_acc ();
  }

let disabled_sink = make_sink ~id:0 ~sample:0 ~cap:0

let off =
  {
    enabled = false;
    clock = Wall_ns;
    domains = 0;
    sample = 0;
    sinks = [||];
  }

let make ~clock ~ring_capacity ~sample ~domains =
  if domains < 1 then invalid_arg "Telemetry.create: domains must be >= 1";
  if domains + 1 > max_sinks then
    invalid_arg "Telemetry.create: at most 1023 domains (token packing)";
  if ring_capacity < 0 then
    invalid_arg "Telemetry.create: ring_capacity must be >= 0";
  if sample < 0 then invalid_arg "Telemetry.create: sample must be >= 0";
  {
    enabled = true;
    clock;
    domains;
    sample;
    sinks =
      Array.init (domains + 1) (fun id ->
          make_sink ~id ~sample ~cap:ring_capacity);
  }

let create ?(ring_capacity = 1 lsl 16) ?(sample = 1) ~domains () =
  make ~clock:Wall_ns ~ring_capacity ~sample ~domains

let create_simulated ~ring_capacity ~sample ~cores ~ghz =
  make ~clock:(Cycles ghz) ~ring_capacity ~sample ~domains:cores

let clock t = t.clock
let enabled t = t.enabled
let domains t = t.domains
let sample t = t.sample

let[@inline never] sink t d =
  if not t.enabled then disabled_sink
  else if d < 0 || d > t.domains then
    invalid_arg "Telemetry.sink: domain out of range"
  else t.sinks.(d)

let[@inline never] coordinator t =
  if t.enabled then t.sinks.(t.domains) else disabled_sink

let sink_array t ~n =
  if not t.enabled then Array.make n disabled_sink
  else if n <> t.domains then
    invalid_arg "Telemetry.sink_array: telemetry sized for a different pool"
  else Array.init n (fun i -> t.sinks.(i))

(* Here the element type is a known record, so the load is a plain one:
   indexed where [sink] is abstract, each load would carry a
   float-array tag test. *)
let sink_at (a : sink array) i = a.(i)

(* ------------------------------------------------------------------ *)
(* The clock                                                           *)

external monotonic_ns : unit -> (int[@untagged])
  = "o2_runtime_now_ns_byte" "o2_runtime_now_ns"
[@@noalloc]

(* A binding rather than a re-exported external so the o2staticcheck
   manifest can name it; small enough to inline at every call site. *)
let now_ns () = monotonic_ns ()

(* ------------------------------------------------------------------ *)
(* Writers (owner only)                                                *)

(* cap = 0 is metrics-only mode: the ring is disabled, so records are
   discarded without touching the drop counter — a drop means the ring
   overflowed, not that it was never asked for. *)
let record_at s ~ts ~kind ~a ~b ~c =
  let ts = if ts < s.last_ts then s.last_ts else ts in
  s.last_ts <- ts;
  if s.cap > 0 then begin
    if s.len < s.cap then begin
      let base = s.len * width in
      s.buf.(base) <- ts;
      s.buf.(base + 1) <- int_of_kind kind;
      s.buf.(base + 2) <- a;
      s.buf.(base + 3) <- b;
      s.buf.(base + 4) <- c;
      s.len <- s.len + 1
    end
    else s.drops <- s.drops + 1
  end

let record s ~kind ~a ~b ~c = record_at s ~ts:(now_ns ()) ~kind ~a ~b ~c

let[@inline never] note_steal s ~victim =
  s.steals <- s.steals + 1;
  record s ~kind:Steal ~a:victim ~b:0 ~c:0

let[@inline never] note_park s =
  s.parks <- s.parks + 1;
  record s ~kind:Park ~a:0 ~b:0 ~c:0

let[@inline never] note_wake s =
  s.wakes <- s.wakes + 1;
  record s ~kind:Wake ~a:0 ~b:0 ~c:0

let[@inline never] note_inbox_batch s ~count =
  s.inbox_batches <- s.inbox_batches + 1;
  s.inbox_tasks <- s.inbox_tasks + count;
  if count > s.max_batch then s.max_batch <- count;
  record s ~kind:Inbox_batch ~a:count ~b:0 ~c:0

let[@inline never] note_spawned s ~core =
  s.spawns <- s.spawns + 1;
  record s ~kind:Spawned ~a:core ~b:0 ~c:0

(* Mint a token for one op. Returns -1 when this op's span events are
   sampled out — the latency accumulators still see it. *)
let[@inline] mint s =
  let seq = s.seq in
  s.seq <- seq + 1;
  if s.sample > 0 && seq mod s.sample = 0 then (seq * max_sinks) + s.id
  else -1

let[@inline never] op_submit s ~obj =
  let token = mint s in
  if token >= 0 then record s ~kind:Submit ~a:token ~b:obj ~c:0;
  token

let op_submit_at s ~ts ~obj =
  let token = mint s in
  if token >= 0 then record_at s ~ts ~kind:Submit ~a:token ~b:obj ~c:0;
  token

let[@inline never] note_ship_out s ~token ~obj ~dst =
  s.ships_out <- s.ships_out + 1;
  if token >= 0 then record s ~kind:Ship_out ~a:token ~b:obj ~c:dst

let[@inline never] note_ship_in s ~token ~obj ~src =
  s.ships_in <- s.ships_in + 1;
  if token >= 0 then record s ~kind:Ship_in ~a:token ~b:obj ~c:src

let[@inline never] note_start s ~token ~obj =
  if token >= 0 then record s ~kind:Start ~a:token ~b:obj ~c:s.id

let[@inline never] note_end s ~token ~obj =
  if token >= 0 then record s ~kind:End ~a:token ~b:obj ~c:0

let observe_home s ns = observe s.lat_home ns
let observe_shipped s ns = observe s.lat_shipped ns
let observe_ship_delay s ns = observe s.lat_ship_delay ns
let observe_exec s ns = observe s.lat_exec ns

let[@inline never] note_rebalance s ~moves =
  record s ~kind:Rebalance ~a:moves ~b:0 ~c:0

let[@inline never] note_quiesce s = record s ~kind:Quiesce ~a:0 ~b:0 ~c:0

(* ------------------------------------------------------------------ *)
(* Readers (quiescence only)                                           *)

let sink_id s = s.id
let length s = s.len
let dropped s = s.drops
let ts s i = s.buf.(i * width)
let kind s i = kind_of_int s.buf.((i * width) + 1)
let arg0 s i = s.buf.((i * width) + 2)
let arg1 s i = s.buf.((i * width) + 3)
let arg2 s i = s.buf.((i * width) + 4)

let steals s = s.steals
let ships_out s = s.ships_out
let ships_in s = s.ships_in
let parks s = s.parks
let wakes s = s.wakes
let spawns s = s.spawns
let inbox_batches s = s.inbox_batches
let inbox_tasks s = s.inbox_tasks
let max_batch s = s.max_batch
let ops_submitted s = s.seq
let lat_home s = s.lat_home
let lat_shipped s = s.lat_shipped
let lat_ship_delay s = s.lat_ship_delay
let lat_exec s = s.lat_exec

let fold_sinks t ~init ~f =
  if not t.enabled then init
  else Array.fold_left f init t.sinks

let total_dropped t = fold_sinks t ~init:0 ~f:(fun acc s -> acc + s.drops)
let total_events t = fold_sinks t ~init:0 ~f:(fun acc s -> acc + s.len + s.drops)
