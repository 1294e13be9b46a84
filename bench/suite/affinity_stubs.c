/* CPU affinity of the calling thread, for Calib.on_one_cpu.  Threads
   and processes started afterwards inherit it. */

#define _GNU_SOURCE
#include <sched.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

/* The affinity mask, as the bytes of a cpu_set_t. */
value suite_affinity_get(value unit)
{
  cpu_set_t set;
  (void)unit;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_getaffinity");
  return caml_alloc_initialized_string(sizeof set, (const char *)&set);
}

value suite_affinity_set(value mask)
{
  cpu_set_t set;
  if (caml_string_length(mask) != sizeof set)
    caml_invalid_argument("suite_affinity_set");
  memcpy(&set, String_val(mask), sizeof set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_unit;
}
