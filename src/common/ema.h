// Exponential moving average of critical-section durations.
//
// SpRWL samples critical-section durations on a single thread (Section 3.2.1
// of the paper) and keeps an EMA per critical-section id so that waiting
// phases can be sized from the *expected* end time of readers/writers. The
// estimate is published through a relaxed atomic so every thread can read it
// without synchronization; only the sampler thread writes.
#pragma once

#include <atomic>
#include <cstdint>

namespace sprwl {

class DurationEma {
 public:
  /// alpha is the weight of the newest sample; the paper's prototype uses a
  /// small constant so the estimate tracks workload shifts quickly without
  /// jitter. 1/8 matches common RTT-estimator practice.
  static constexpr double kDefaultAlpha = 0.125;

  explicit DurationEma(double alpha = kDefaultAlpha) noexcept : alpha_(alpha) {}

  /// Record one duration sample (cycles). Called by the sampler thread only.
  void record(std::uint64_t cycles) noexcept {
    const std::uint64_t cur = value_.load(std::memory_order_relaxed);
    if (cur == 0) {
      value_.store(cycles, std::memory_order_relaxed);
      return;
    }
    const double next = static_cast<double>(cur) * (1.0 - alpha_) +
                        static_cast<double>(cycles) * alpha_;
    value_.store(static_cast<std::uint64_t>(next), std::memory_order_relaxed);
  }

  /// Current estimate in cycles; 0 means "no sample yet".
  std::uint64_t estimate() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
  double alpha_;
};

}  // namespace sprwl
