// A sampling CPU profiler to preload into any MARP binary.
//
//   MARP_PROF_OUT=prof.out LD_PRELOAD=$PWD/build/tools/libmarp_prof.so build/tools/marp_sim
//   python3 tools/prof/report.py prof.out
//
// Once loaded, ITIMER_PROF asks for a SIGPROF every millisecond of CPU time
// the process uses (all threads together; the kernel checks the timer at
// its scheduler tick, so at 250 Hz a sample comes at most every 4 ms), and
// the handler stores the interrupted call stack, as backtrace() sees it, in
// a buffer reserved at load time: the handler never allocates. At exit the
// samples and a copy of /proc/self/maps go to $MARP_PROF_OUT ("%p" in the
// name becomes the pid); tools/prof/report.py turns them into per-function
// shares. Without MARP_PROF_OUT the library does nothing.
//
// It cannot load into a sanitizer build (those own the signal and memory
// machinery), and samples taken after the buffer fills are counted as
// dropped, not stored.
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr int kMaxDepth = 48;                 // frames kept per sample
constexpr std::size_t kMaxSamples = 1 << 18;  // ~4.4 min of CPU time at 1 ms
constexpr long kPeriodUs = 1000;

/// One sample: the frame count, then the return addresses, innermost first.
struct Sample {
  std::size_t depth;
  void* frames[kMaxDepth];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};
// The output path. A plain array, not a std::string: static objects of this
// library are destroyed before its destructor function runs.
char g_out[4096] = "";

void on_sigprof(int, siginfo_t*, void*) {
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    Sample& sample = g_samples[slot];
    sample.depth = static_cast<std::size_t>(backtrace(sample.frames, kMaxDepth));
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

void stop_timer() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
}

__attribute__((constructor)) void start_sampling() {
  const char* out = std::getenv("MARP_PROF_OUT");
  if (out == nullptr || *out == '\0') return;
  std::string path = out;
  if (const auto at = path.find("%p"); at != std::string::npos) {
    path.replace(at, 2, std::to_string(getpid()));
  }
  if (path.size() >= sizeof g_out) {
    std::fputs("marp_prof: MARP_PROF_OUT is too long\n", stderr);
    return;
  }
  void* buffer = mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    std::perror("marp_prof: mmap");
    return;
  }
  g_samples = static_cast<Sample*>(buffer);
  path.copy(g_out, path.size());
  // The first backtrace() loads the unwinder, which allocates: do it here,
  // not inside the signal handler.
  void* warm[2];
  backtrace(warm, 2);

  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  const itimerval every{{0, kPeriodUs}, {0, kPeriodUs}};
  setitimer(ITIMER_PROF, &every, nullptr);
}

__attribute__((destructor)) void write_samples() {
  if (g_samples == nullptr) return;
  stop_timer();
  std::FILE* file = std::fopen(g_out, "w");
  if (file == nullptr) {
    std::perror("marp_prof: open MARP_PROF_OUT");
    return;
  }
  const std::size_t taken = std::min(g_next.load(), kMaxSamples);
  std::fprintf(file, "# marp-prof 1 period_us=%ld samples=%zu dropped=%zu\n", kPeriodUs,
               taken, g_dropped.load());
  for (std::size_t i = 0; i < taken; ++i) {
    std::fputc('S', file);
    for (std::size_t f = 0; f < g_samples[i].depth; ++f) {
      std::fprintf(file, " %zx", reinterpret_cast<std::size_t>(g_samples[i].frames[f]));
    }
    std::fputc('\n', file);
  }
  std::fputs("# maps\n", file);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) std::fputs(line, file);
    std::fclose(maps);
  }
  std::fclose(file);
}

}  // namespace
