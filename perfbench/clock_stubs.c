/* A monotonic clock read that allocates nothing: the native entry point
   returns an untagged int, so timing an op never touches the minor heap
   (a boxed int64 per read would add minor GCs, which stop every domain). */
#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}
