(** Deterministic per-client operation programs for the oracle.

    Programs are generated by a self-contained xorshift generator (no
    dependency on the simulator's RNG — the native backend must not pull
    workload state through [lib/workload]) and obey the one structural
    rule that makes results interleaving-independent on a store with
    per-key state: {e key ownership}. Client [c] of [clients] only ever
    touches keys [k] with [k mod clients = c], so the outcome of each of
    its ops is a function of its own history alone, and both backends
    must produce bit-identical result arrays whatever the schedule.

    Ops are immutable, and ops in one program may be physically shared:
    every occurrence of one [Get k], [Delete k] or [(dir, key)] value is
    the same block, and only [Put] gets a fresh block per op. Compare
    ops with [=], never with [==]. Besides the result, one call holds
    one word per own key for each of [Get] and [Delete], or one word per
    [(dir, key)] pair, while it runs.

    The order in which each op's fields are drawn from the generator is
    part of the output: changing it changes every program. *)

type op = Get of int | Put of int * int | Delete of int

val kv_program :
  clients:int -> client:int -> ops:int -> keyspace:int -> seed:int -> op array
(** [ops] ops, mixed 60% get / 30% put / 10% delete over the client's
    own keys. Values are in [0, 1_000_000); a [Put] draws its value
    before its key. [ops = 0] gives [[||]].
    @raise Invalid_argument if [clients <= 0], [ops < 0],
    [client] is outside [0, clients) or [keyspace < clients]. *)

val kv_result : op -> raw:int -> int
(** Encode one op's outcome for result-array comparison. [raw] is the
    store's response: [get]'s return for [Get] (value or -1), the
    boolean as 1/0 for [Put]/[Delete]. [Get] encodes to [raw + 1] so
    0 means absent; the booleans pass through. *)

val dir_program :
  dirs:int -> entries_per_dir:int -> ops:int -> seed:int -> (int * int) array
(** [ops] [(dir, key)] lookup pairs; keys range over
    [entries_per_dir + 4] so a deterministic fraction miss. Each pair
    draws its key before its dir. [ops = 0] gives [[||]].
    @raise Invalid_argument if [dirs <= 0], [entries_per_dir <= 0] or
    [ops < 0]. *)

val max_bucket_load : buckets:int -> keyspace:int -> int
(** The worst-case number of {e distinct} keys a single {!Backend_kv}
    bucket can receive from this keyspace — the oracle asserts it fits
    [slots_per_bucket], which is what guarantees [put] never observes a
    full bucket and results stay schedule-independent.
    @raise Invalid_argument if [buckets <= 0] or [keyspace <= 0]. *)
