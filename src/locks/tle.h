// Plain transactional lock elision (TLE).
//
// Both readers and writers run the critical section as a hardware
// transaction that subscribes to a single global fallback lock; after
// max_retries failed attempts — or immediately on a capacity abort, the
// retry policy the paper uses for every HTM baseline — the section runs
// pessimistically under the lock. This is the "TLE" baseline of every
// figure: excellent while critical sections fit HTM, cliff-edge once long
// readers exceed capacity.
#pragma once

#include <optional>
#include <utility>

#include "common/platform.h"
#include "common/scope_exit.h"
#include "htm/engine.h"
#include "locks/deadline.h"
#include "locks/sgl.h"
#include "locks/stats.h"

namespace sprwl::locks {

class TLELock {
 public:
  struct Config {
    int max_threads = 64;
    int max_retries = 10;
  };

  /// Explicit-abort code raised when the subscribed lock is found busy.
  static constexpr std::uint8_t kCodeLockBusy = 0x01;

  explicit TLELock(Config cfg) : cfg_(cfg), modes_(cfg.max_threads) {}

  template <class F>
  void read(int /*cs_id*/, F&& f) {
    modes_.record_read(elide(SchedKind::kReadEnter, SchedKind::kReadExit,
                             std::forward<F>(f)));
  }

  template <class F>
  void write(int /*cs_id*/, F&& f) {
    modes_.record_write(elide(SchedKind::kWriteEnter, SchedKind::kWriteExit,
                              std::forward<F>(f)));
  }

  /// Deadline-bounded read. An aborted transaction leaves no shared state
  /// behind by construction, so the only unwind-sensitive step is the
  /// fallback lock acquisition, which is timed.
  template <class F>
  AcquireResult try_read_for(int /*cs_id*/, std::uint64_t budget_cycles,
                             F&& f) {
    const std::uint64_t deadline = checked_deadline(budget_cycles);
    CommitMode mode{};
    if (!elide_until(SchedKind::kReadEnter, SchedKind::kReadExit, deadline,
                     std::forward<F>(f), mode)) {
      return AcquireResult::kTimeout;
    }
    modes_.record_read(mode);
    return AcquireResult::kAcquired;
  }

  template <class F>
  AcquireResult try_write_for(int /*cs_id*/, std::uint64_t budget_cycles,
                              F&& f) {
    const std::uint64_t deadline = checked_deadline(budget_cycles);
    CommitMode mode{};
    if (!elide_until(SchedKind::kWriteEnter, SchedKind::kWriteExit, deadline,
                     std::forward<F>(f), mode)) {
      return AcquireResult::kTimeout;
    }
    modes_.record_write(mode);
    return AcquireResult::kAcquired;
  }

  LockStats stats() const { return modes_.snapshot(); }
  void reset_stats() { modes_.reset(); }
  static const char* name() noexcept { return "TLE"; }

 private:
  template <class F>
  CommitMode elide(SchedKind enter, SchedKind exit, F&& f) {
    CommitMode mode{};
    elide_until(enter, exit, kNoDeadline, std::forward<F>(f), mode);
    return mode;  // always succeeds at kNoDeadline
  }

  /// Shared elision loop. With deadline == kNoDeadline the expiry checks
  /// read the free virtual clock and never fire, and SglLock::lock_until
  /// charges exactly what lock() does, so the untimed entry points above
  /// keep their traces byte-identical to the pre-deadline implementation.
  template <class F>
  bool elide_until(SchedKind enter, SchedKind exit, std::uint64_t deadline,
                   F&& f, CommitMode& mode) {
    htm::Engine& engine = htm::Engine::require("TLELock");
    int attempts = 0;
    for (;;) {
      while (gl_.is_locked()) {
        if (deadline_expired(deadline)) return false;
        platform::pause();
      }
      ++attempts;
      const htm::TxStatus status =
          engine.try_transaction([&]() -> std::optional<htm::Abort> {
            // Subscription: a later SGL acquisition aborts this attempt.
            if (gl_.is_locked()) return htm::Abort{kCodeLockBusy};
            platform::sched_point(enter, this);
            f();
            platform::sched_point(exit, this);
            return std::nullopt;
          });
      if (status.committed()) {
        mode = CommitMode::kHtm;
        return true;
      }
      modes_.record_abort(status, kCodeLockBusy);
      if (status.cause == htm::AbortCause::kCapacity) {
        modes_.record_escalation(Escalation::kCapacity);
        break;
      }
      if (attempts >= cfg_.max_retries) {
        modes_.record_escalation(Escalation::kRetryExhausted);
        break;
      }
      if (deadline_expired(deadline)) return false;
    }
    if (!gl_.lock_until(deadline)) return false;
    platform::sched_point(enter, this);
    {
      ScopeExit release([&] { gl_.unlock(); });
      f();
      platform::sched_point(exit, this);
    }
    mode = CommitMode::kGl;
    return true;
  }

  Config cfg_;
  SglLock gl_;
  ModeRecorder modes_;
};

}  // namespace sprwl::locks
