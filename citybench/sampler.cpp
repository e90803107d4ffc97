#include "sampler.h"

#include <execinfo.h>
#include <link.h>
#include <ucontext.h>

#include <cstdio>
#include <cstdlib>

namespace citybench {
namespace {

// The handler has no user argument; this is the one armed sampler.
std::atomic<StackSampler*> g_active{nullptr};

struct TextRange {
  std::uintptr_t bias = 0;
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};

// dl_iterate_phdr visits the main program first.
int find_main_program(dl_phdr_info* info, std::size_t, void* data) {
  auto* range = static_cast<TextRange*>(data);
  range->bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    const std::uintptr_t hi = lo + ph.p_memsz;
    if (range->lo == 0 || lo < range->lo) range->lo = lo;
    if (hi > range->hi) range->hi = hi;
  }
  return 1;  // stop after the main program
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "citybench sampler: %s\n", what);
  std::exit(2);
}

}  // namespace

StackSampler::StackSampler(std::size_t max_samples, long interval_ns)
    : max_samples_(max_samples),
      interval_ns_(interval_ns),
      frames_(max_samples * kDepth, 0),
      depths_(max_samples, 0) {
  TextRange range;
  dl_iterate_phdr(find_main_program, &range);
  if (range.hi <= range.lo) die("cannot locate the executable's text");
  if (range.hi - range.bias > UINT32_MAX) die("text beyond 32-bit offsets");
  bias_ = range.bias;
  text_lo_ = range.lo;
  text_hi_ = range.hi;

  // The first backtrace() loads the unwinder, which allocates; do it here,
  // never inside the handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  struct sigaction sa {};
  sa.sa_sigaction = &StackSampler::on_signal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &previous_) != 0) die("sigaction failed");

  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    die("timer_create failed");
  }
  timer_made_ = true;
}

StackSampler::~StackSampler() {
  stop();
  if (timer_made_) timer_delete(timer_);
  sigaction(SIGPROF, &previous_, nullptr);
}

void StackSampler::start() {
  g_active.store(this, std::memory_order_release);
  itimerspec spec{};
  spec.it_interval.tv_nsec = interval_ns_;
  spec.it_value.tv_nsec = interval_ns_;
  if (timer_settime(timer_, 0, &spec, nullptr) != 0) die("timer_settime");
}

void StackSampler::stop() {
  if (!timer_made_) return;
  itimerspec off{};
  timer_settime(timer_, 0, &off, nullptr);
  g_active.store(nullptr, std::memory_order_release);
}

void StackSampler::on_signal(int, siginfo_t*, void* ucontext) {
  StackSampler* self = g_active.load(std::memory_order_acquire);
  if (self == nullptr) return;
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  self->record(static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]));
}

void StackSampler::record(std::uintptr_t pc) {
  const std::size_t slot = count_.load(std::memory_order_relaxed);
  if (slot >= max_samples_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Frames above the interrupted PC: this handler and the signal
  // trampoline, plus slack for the unwinder's own frame.
  void* raw[kDepth + 8];
  const int n = backtrace(raw, static_cast<int>(kDepth + 8));
  int leaf = -1;
  for (int i = 0; i < n; ++i) {
    if (reinterpret_cast<std::uintptr_t>(raw[i]) == pc) {
      leaf = i;
      break;
    }
  }
  std::uint32_t* out = &frames_[slot * kDepth];
  std::size_t depth = 0;
  auto keep = [&](std::uintptr_t addr) {
    if (depth < kDepth && addr >= text_lo_ && addr < text_hi_) {
      out[depth++] = static_cast<std::uint32_t>(addr - bias_);
    }
  };
  keep(pc);
  if (leaf < 0) {
    unwind_failures_.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (int i = leaf + 1; i < n; ++i) {
      keep(reinterpret_cast<std::uintptr_t>(raw[i]) - 1);
    }
  }
  depths_[slot] = static_cast<std::uint8_t>(depth);
  count_.store(slot + 1, std::memory_order_relaxed);
}

std::map<std::vector<std::uint32_t>, std::uint64_t> StackSampler::stacks()
    const {
  std::map<std::vector<std::uint32_t>, std::uint64_t> out;
  const std::size_t n = samples();
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t* f = &frames_[s * kDepth];
    ++out[std::vector<std::uint32_t>(f, f + depths_[s])];
  }
  return out;
}

}  // namespace citybench
