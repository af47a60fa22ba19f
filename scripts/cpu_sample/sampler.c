/* Dependency-free CPU sampler for hosts without perf.
 *
 * Build:  cc -O2 -shared -fPIC -o libcpusample.so sampler.c
 * Run:    CPU_SAMPLE_OUT=prof.txt CPU_SAMPLE_HZ=1000 \
 *           LD_PRELOAD=./libcpusample.so <program> <args>
 * Fold:   python3 fold.py prof.txt
 *
 * ITIMER_PROF delivers SIGPROF to the process every 1/HZ seconds of CPU
 * time it consumes (all threads); the handler records the interrupted
 * thread's return addresses with backtrace(3) into a preallocated buffer.
 * At exit the samples ("s addr addr ...") and /proc/self/maps ("m ...")
 * are written out for fold.py to symbolize. Build the program with frame
 * pointers or unwind tables (RelWithDebInfo/Release with -g works). */
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/time.h>

#define MAX_FRAMES 48
#define MAX_SAMPLES (1 << 18)

typedef struct { int n; void* pc[MAX_FRAMES]; } Sample;
static Sample* samples;
static atomic_int next_sample;

static void on_prof(int sig) {
  (void)sig;
  int i = atomic_fetch_add(&next_sample, 1);
  if (i >= MAX_SAMPLES) return;
  samples[i].n = backtrace(samples[i].pc, MAX_FRAMES);
}

__attribute__((constructor)) static void start(void) {
  samples = mmap(NULL, sizeof(Sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) return;
  void* prime[1];
  backtrace(prime, 1); /* Loads the unwinder outside the handler. */
  const char* hz_env = getenv("CPU_SAMPLE_HZ");
  long hz = hz_env ? atol(hz_env) : 997;
  struct sigaction sa = {0};
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it = {{0, 1000000 / hz}, {0, 1000000 / hz}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (samples == MAP_FAILED || samples == NULL) return;
  int n = atomic_load(&next_sample);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  /* A wrapper process (timeout, a shell) inherits LD_PRELOAD too; one
   * that took no samples must not overwrite the real profile. */
  if (n == 0) return;
  const char* path = getenv("CPU_SAMPLE_OUT");
  FILE* out = fopen(path ? path : "cpu_sample.txt", "w");
  if (out == NULL) return;
  for (int i = 0; i < n; ++i) {
    fputs("s", out);
    for (int f = 0; f < samples[i].n; ++f) {
      fprintf(out, " %p", samples[i].pc[f]);
    }
    fputs("\n", out);
  }
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof(line), maps) != NULL) {
    fprintf(out, "m %s", line);
  }
  if (maps != NULL) fclose(maps);
  fclose(out);
}
