/* Monotonic nanoseconds as an untagged native int. Unlike
   Sias_util.Monotime (a boxed float) this allocates nothing, so a probe
   never shows up in the minor-heap word counts it is measuring. */

#include <time.h>
#include <caml/mlvalues.h>

intnat sias_bench_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value sias_bench_now_ns_byte(value unit)
{
  return Val_long(sias_bench_now_ns(unit));
}
