/* Telemetry.now_ns: CLOCK_MONOTONIC in nanoseconds as an untagged int.
   The native entry point is [@@noalloc], so a clock read on the op path
   never touches the minor heap (a boxed int64 per read would add minor
   collections, and in OCaml 5 those stop every domain). */
#include <time.h>
#include <caml/mlvalues.h>

intnat o2_runtime_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value o2_runtime_now_ns_byte(value unit)
{
  return Val_long(o2_runtime_now_ns(unit));
}
