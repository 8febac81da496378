/* CPU affinity for the benchmark's timed repetitions (see [pinned] in
   perfbench.ml): the CPUs this process may run on, and pinning the
   calling process to one of them. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* The CPU numbers in this process's affinity mask, in ascending order;
   empty if the mask cannot be read. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, i, j = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    CAMLreturn(Atom(0));
  n = CPU_COUNT(&set);
  if (n == 0)
    CAMLreturn(Atom(0));
  cpus = caml_alloc_tuple(n);
  for (i = 0; i < CPU_SETSIZE && j < n; i++)
    if (CPU_ISSET(i, &set))
      Store_field(cpus, j++, Val_int(i));
  CAMLreturn(cpus);
}

/* Restricts the calling process to CPU [cpu]; true if that worked. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
