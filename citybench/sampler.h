// Wall-clock stack sampler for the benchmark's traced run.
//
// A POSIX timer on CLOCK_MONOTONIC delivers SIGPROF every `interval_ns`
// (ITIMER_PROF ticks with the scheduler, a few hundred samples per second;
// an hrtimer reaches thousands). The handler unwinds the interrupted stack
// with the DWARF unwinder and keeps the frames that lie inside this
// executable, as ELF virtual addresses (the PIE load bias subtracted), so
// `addr2line -e <binary>` can map them to source files afterwards. The leaf
// frame is the exact interrupted PC; caller frames are return addresses
// minus one, so they fall inside the call instruction's line.
//
// Single-threaded use only: the signal is process-directed, so the process
// must have no other thread that could receive it.
#pragma once

#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <vector>

namespace citybench {

class StackSampler {
 public:
  /// Innermost frames kept per sample.
  static constexpr std::size_t kDepth = 48;

  /// Preallocates room for `max_samples` samples; samples past that are
  /// counted in dropped(). Installs the handler (restored by the destructor)
  /// but does not arm the timer.
  StackSampler(std::size_t max_samples, long interval_ns);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  void start();  ///< arm the timer
  void stop();   ///< disarm the timer; samples taken so far stay readable

  [[nodiscard]] std::size_t samples() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Samples whose unwind did not pass through the interrupted PC; only
  /// their leaf frame is kept.
  [[nodiscard]] std::size_t unwind_failures() const noexcept {
    return unwind_failures_.load(std::memory_order_relaxed);
  }

  /// Distinct stacks (innermost frame first) with their sample counts.
  [[nodiscard]] std::map<std::vector<std::uint32_t>, std::uint64_t> stacks()
      const;

 private:
  static void on_signal(int sig, siginfo_t* info, void* ucontext);
  void record(std::uintptr_t pc);

  std::size_t max_samples_;
  long interval_ns_;
  std::uintptr_t bias_ = 0;     ///< PIE load bias of the executable
  std::uintptr_t text_lo_ = 0;  ///< executable segment range (runtime)
  std::uintptr_t text_hi_ = 0;
  std::vector<std::uint32_t> frames_;  ///< max_samples_ × kDepth
  std::vector<std::uint8_t> depths_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::size_t> unwind_failures_{0};
  timer_t timer_{};
  bool timer_made_ = false;
  struct sigaction previous_{};
};

}  // namespace citybench
