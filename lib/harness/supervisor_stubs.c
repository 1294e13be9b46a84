/* Three primitives for the supervisor's warm workers. */

#include <dirent.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#include <caml/mlvalues.h>

/* The condition Unix.fork checks: OCaml 5.1 refuses to fork, for the
   rest of a process's life, once any domain was spawned.  Declared in
   the runtime's internal domain.h. */
extern intnat caml_domain_is_multicore(void);

value harness_domain_is_multicore(value unit)
{
  (void)unit;
  return Val_bool(caml_domain_is_multicore());
}

/* Close every descriptor above stderr except [keep1] and [keep2]: the
   open ones as listed by /proc/self/fd (or /dev/fd), else all up to
   the descriptor limit. */
value harness_close_inherited(value keep1, value keep2)
{
  int a = Int_val(keep1), b = Int_val(keep2);
  DIR *dir = opendir("/proc/self/fd");
  if (dir == NULL) dir = opendir("/dev/fd");
  if (dir != NULL) {
    int own = dirfd(dir);
    struct dirent *e;
    while ((e = readdir(dir)) != NULL) {
      int fd = atoi(e->d_name);
      if (fd > 2 && fd != a && fd != b && fd != own) close(fd);
    }
    closedir(dir);
  } else {
    long max = sysconf(_SC_OPEN_MAX);
    if (max < 0 || max > 65536) max = 65536;
    for (int fd = 3; fd < max; fd++)
      if (fd != a && fd != b) close(fd);
  }
  return Val_unit;
}

/* Ask the kernel for SIGHUP when the parent dies (Linux only), and say
   whether [parent] is still this process's parent: it may have died
   before the request. */
value harness_hup_on_parent_death(value parent)
{
#ifdef __linux__
  prctl(PR_SET_PDEATHSIG, SIGHUP);
#endif
  return Val_bool(getppid() == Int_val(parent));
}
