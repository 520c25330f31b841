// Lightweight event tracing for lock decisions.
//
// A Tracer is a fixed-capacity ring of (virtual-time, thread, event, arg)
// records. Locks emit through the process-wide current tracer when one is
// installed and skip a single branch when none is (the default — tracing is
// strictly opt-in and charges no virtual time, it is an observer, not part
// of the modelled machine).
//
// Intended use: install a Tracer around a puzzling run, drain() it, and
// read the interleaved decision timeline — which reader deferred to the
// SGL, which writer burned its budget, when a writer revoked the bias.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/platform.h"

namespace sprwl::trace {

enum class Event : std::uint8_t {
  kNone = 0,
  // Reader-side
  kReadHtmCommit,      ///< read section elided in HTM (§3.4 fast path)
  kReadUninsEnter,     ///< uninstrumented read section entered
  kReadUninsExit,      ///< uninstrumented read section left
  kReaderWait,         ///< reader-sync wait began; arg = writer tid
  kReaderJoin,         ///< joined an already-waiting reader; arg = writer tid
  kReaderDeferSgl,     ///< reader backed off from a busy SGL
  // Writer-side
  kWriteHtmCommit,     ///< update committed in HTM; arg = attempts used
  kWriteAbortReader,   ///< attempt aborted by an active reader
  kWriterWait,         ///< writer-sync delay began (Alg. 3)
  kWriteSglEnter,      ///< fallback path taken; arg = attempts used
  kWriteSglExit,
  kWriterBackoff,      ///< exponential retry backoff; arg = backoff cycles
  kStalledReaderEscalate,  ///< reader-stall watchdog fired; arg = attempts
  kLemmingAvoided,     ///< lock-busy abort forgiven (no retry burned)
  // BRAVO global reader bias (DESIGN.md §12)
  kReadBiasEnter,      ///< fast-path read via the global reader table
  kReadBiasExit,
  kBiasRevoke,         ///< writer revoked the lock's bias; arg = drain cycles
  kBiasRebias,         ///< reader streak re-enabled the bias
  // Fault injection (src/fault)
  kFaultPreempt,       ///< fiber descheduled; arg = duration in cycles
  kFaultSyscall,       ///< modelled syscall fired at a checkpoint
  // Deadline-aware acquisition (DESIGN.md §13)
  kReadTimeout,        ///< timed read abandoned (all tracking unwound)
  kWriteTimeout,       ///< timed write abandoned before entering its section
  kBiasRevokeAbandoned,  ///< timed revocation drain expired; bias re-armed
};

const char* to_string(Event e) noexcept;

struct Record {
  std::uint64_t time;
  std::int32_t tid;
  Event event;
  std::uint32_t arg;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 14) : ring_(capacity) {}

  void emit(Event e, std::uint32_t arg = 0) {
    const std::size_t at =
        cursor_.fetch_add(1, std::memory_order_relaxed) % ring_.size();
    ring_[at] = Record{platform::now(), platform::thread_id(), e, arg};
  }

  /// Snapshot of the retained records in emission order (oldest first).
  /// Call at quiescence (after the run), not concurrently with emitters.
  std::vector<Record> drain() const {
    const std::size_t total = cursor_.load(std::memory_order_relaxed);
    std::vector<Record> out;
    const std::size_t n = total < ring_.size() ? total : ring_.size();
    out.reserve(n);
    const std::size_t start = total < ring_.size() ? 0 : total % ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
  }

  std::size_t emitted() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

  static Tracer* current() noexcept {
    return g_current.load(std::memory_order_acquire);
  }
  static void set_current(Tracer* t) noexcept {
    g_current.store(t, std::memory_order_release);
  }

 private:
  std::vector<Record> ring_;
  std::atomic<std::size_t> cursor_{0};
  static inline std::atomic<Tracer*> g_current{nullptr};
};

/// Emit through the installed tracer, if any. One predictable branch when
/// tracing is off.
inline void emit(Event e, std::uint32_t arg = 0) {
  if (Tracer* t = Tracer::current()) t->emit(e, arg);
}

/// RAII installer.
class TracerScope {
 public:
  explicit TracerScope(Tracer& t) noexcept : prev_(Tracer::current()) {
    Tracer::set_current(&t);
  }
  ~TracerScope() { Tracer::set_current(prev_); }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* prev_;
};

inline const char* to_string(Event e) noexcept {
  switch (e) {
    case Event::kNone: return "none";
    case Event::kReadHtmCommit: return "read-htm-commit";
    case Event::kReadUninsEnter: return "read-unins-enter";
    case Event::kReadUninsExit: return "read-unins-exit";
    case Event::kReaderWait: return "reader-wait";
    case Event::kReaderJoin: return "reader-join";
    case Event::kReaderDeferSgl: return "reader-defer-sgl";
    case Event::kWriteHtmCommit: return "write-htm-commit";
    case Event::kWriteAbortReader: return "write-abort-reader";
    case Event::kWriterWait: return "writer-wait";
    case Event::kWriteSglEnter: return "write-sgl-enter";
    case Event::kWriteSglExit: return "write-sgl-exit";
    case Event::kWriterBackoff: return "writer-backoff";
    case Event::kStalledReaderEscalate: return "stalled-reader-escalate";
    case Event::kLemmingAvoided: return "lemming-avoided";
    case Event::kReadBiasEnter: return "read-bias-enter";
    case Event::kReadBiasExit: return "read-bias-exit";
    case Event::kBiasRevoke: return "bias-revoke";
    case Event::kBiasRebias: return "bias-rebias";
    case Event::kFaultPreempt: return "fault-preempt";
    case Event::kFaultSyscall: return "fault-syscall";
    case Event::kReadTimeout: return "read-timeout";
    case Event::kWriteTimeout: return "write-timeout";
    case Event::kBiasRevokeAbandoned: return "bias-revoke-abandoned";
  }
  return "?";
}

}  // namespace sprwl::trace
