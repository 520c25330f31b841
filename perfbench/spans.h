// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// each layer's public functions (setup, Simulator::run, the lock's
// read/write, the critical-section body, explore_dfs, verification). Each
// span carries its host duration, the fiber's virtual cycles (in-fiber spans
// only), its parent span and the operation it belongs to. Everything stays
// in memory until the run ends; write_chrome_trace() then exports the spans
// as a Chrome trace-event file that any offline trace viewer opens.
//
// Span storage comes from mmap, never from the C++ heap: the TPC-C tables
// are not all cache-line aligned, so their line geometry (and with it every
// HTM footprint) depends on heap placement, and a tracer that allocated
// from the heap would shift it and change the traced run's virtual-clock
// results.
//
// Host time inside a fiber is only attributable when no fiber switch
// happened during the span (otherwise other fibers' work is inside its
// host interval), so every in-fiber span records whether the simulator's
// switch counter moved: a span with `covered` set has a meaningful host
// self time, the rest report virtual cycles only.
#pragma once

#include <sys/mman.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>

#include "common/platform.h"
#include "sim/simulator.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kSetup,
  kSetupPopulate,
  kSetupEngine,
  kSetupLock,
  kSetupSim,
  kSimRun,
  kCoreRead,
  kCoreWrite,
  kBody,
  kCheckDfs,
  kVerify,
  kCount,
};

inline const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kSetup: return "setup";
    case SpanName::kSetupPopulate: return "setup.populate";
    case SpanName::kSetupEngine: return "setup.engine";
    case SpanName::kSetupLock: return "setup.lock";
    case SpanName::kSetupSim: return "setup.sim";
    case SpanName::kSimRun: return "sim.run";
    case SpanName::kCoreRead: return "core.read";
    case SpanName::kCoreWrite: return "core.write";
    case SpanName::kBody: return "body";
    case SpanName::kCheckDfs: return "check.dfs";
    case SpanName::kVerify: return "verify";
    case SpanName::kCount: break;
  }
  return "?";
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation id (in-fiber spans), 0 otherwise
  std::int64_t host_start_ns = 0;
  std::int64_t host_ns = 0;
  std::uint64_t virt_start = 0;  ///< fiber virtual time at span start
  std::uint64_t virt_cycles = 0;
  std::int32_t fiber = -1;  ///< -1 = outside the simulator
  SpanName name = SpanName::kSetup;
  std::uint8_t tag = 0;       ///< workload-specific (critical-section id)
  bool aborted = false;       ///< body attempt unwound by an HTM abort
  bool covered = true;        ///< no fiber switch inside the span
  bool measured = false;      ///< operation started inside the window
};

/// Append-only span storage in fixed-size mmap'd chunks (see the header
/// comment for why not the heap). Spans past the chunk table are counted
/// as dropped.
class SpanStore {
 public:
  static constexpr std::size_t kChunkSpans = std::size_t{1} << 16;
  static constexpr std::size_t kMaxChunks = 1024;

  SpanStore() = default;
  ~SpanStore() {
    for (std::size_t i = 0; i < chunks_used_; ++i) {
      munmap(chunks_[i], kChunkSpans * sizeof(Span));
    }
  }
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  void push(const Span& s) {
    const std::size_t c = size_ / kChunkSpans;
    if (c == chunks_used_) {
      void* mem = c < kMaxChunks
                      ? mmap(nullptr, kChunkSpans * sizeof(Span),
                             PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                      : MAP_FAILED;
      if (mem == MAP_FAILED) {
        ++dropped_;
        return;
      }
      chunks_[chunks_used_++] = static_cast<Span*>(mem);
    }
    chunks_[c][size_ % kChunkSpans] = s;
    ++size_;
  }
  std::size_t size() const { return size_; }
  std::size_t dropped() const { return dropped_; }
  const Span& operator[](std::size_t i) const {
    return chunks_[i / kChunkSpans][i % kChunkSpans];
  }

 private:
  std::array<Span*, kMaxChunks> chunks_{};
  std::size_t chunks_used_ = 0;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

class Tracer {
 public:
  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  std::int64_t host_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// The simulator whose switch counter in-fiber spans consult.
  void set_simulator(const sprwl::sim::Simulator* sim) { sim_ = sim; }

  std::uint64_t next_id() { return ++last_id_; }
  void push(const Span& s) { spans_.push(s); }
  const SpanStore& spans() const { return spans_; }

  std::uint64_t switches() const {
    return sim_ != nullptr ? sim_->stats().switches : 0;
  }

  /// Open span stack outside fibers (setup, run and verify nest here; the
  /// benchmark never opens more than three at once).
  std::uint64_t host_parent() const {
    return host_depth_ == 0 ? 0 : host_stack_[host_depth_ - 1];
  }
  void push_host(std::uint64_t id) { host_stack_.at(host_depth_++) = id; }
  void pop_host() { --host_depth_; }

  /// Chrome trace-event JSON. Host-side spans go to process 1 on the host
  /// clock; in-fiber spans go to process 2, one track per fiber, placed on
  /// the virtual clock (1 us of the timeline = 1000 virtual cycles).
  /// At most `max_events` spans are written (the earliest ones); the return
  /// value is the number written, 0 on an I/O error.
  std::size_t write_chrome_trace(const char* path,
                                 std::size_t max_events) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return 0;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    std::fputs(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
        "\"host clock\"}},\n"
        "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":"
        "\"virtual clock (1 us = 1000 cycles)\"}}",
        f);
    std::size_t written = 0;
    for (std::size_t i = 0; i < spans_.size() && written < max_events; ++i) {
      const Span& s = spans_[i];
      const bool in_fiber = s.fiber >= 0;
      const auto start = in_fiber
                             ? s.virt_start
                             : static_cast<std::uint64_t>(s.host_start_ns);
      const auto len =
          in_fiber ? s.virt_cycles : static_cast<std::uint64_t>(s.host_ns);
      // Chrome timestamps are in microseconds: 1000 ns, or 1000 cycles.
      const double ts = static_cast<double>(start) / 1000.0;
      const double dur = static_cast<double>(len) / 1000.0;
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"op\":%llu,\"host_ns\":%lld,"
                   "\"virt_cycles\":%llu,\"covered\":%s,\"aborted\":%s,"
                   "\"tag\":%d}}",
                   to_string(s.name), in_fiber ? 2 : 1,
                   in_fiber ? s.fiber : 0, ts, dur,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.host_ns),
                   static_cast<unsigned long long>(s.virt_cycles),
                   s.covered ? "true" : "false", s.aborted ? "true" : "false",
                   static_cast<int>(s.tag));
      ++written;
    }
    std::fputs("\n]}\n", f);
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) return 0;
    return written;
  }

 private:
  std::chrono::steady_clock::time_point t0_;
  const sprwl::sim::Simulator* sim_ = nullptr;
  std::uint64_t last_id_ = 0;
  SpanStore spans_;
  std::array<std::uint64_t, 8> host_stack_{};
  std::size_t host_depth_ = 0;
};

/// RAII span outside the simulator. A null tracer makes it a no-op, so the
/// untraced run pays one branch per phase.
class HostSpan {
 public:
  HostSpan(Tracer* tr, SpanName name) : tr_(tr) {
    if (tr_ == nullptr) return;
    s_.id = tr_->next_id();
    s_.parent = tr_->host_parent();
    s_.name = name;
    s_.host_start_ns = tr_->host_ns();
    tr_->push_host(s_.id);
  }
  ~HostSpan() {
    if (tr_ == nullptr) return;
    s_.host_ns = tr_->host_ns() - s_.host_start_ns;
    tr_->pop_host();
    tr_->push(s_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  std::uint64_t id() const { return s_.id; }
  void set_tag(std::uint8_t tag) { s_.tag = tag; }

 private:
  Tracer* tr_;
  Span s_;
};

/// RAII span inside a fiber: stamps host time, the fiber's virtual clock
/// (platform::now() is uncharged, so recording never moves virtual time)
/// and the simulator's switch counter. A destructor running during stack
/// unwinding marks the span aborted: that is how an HTM abort (an
/// AbortException unwinding the critical-section body) shows up.
class FiberSpan {
 public:
  FiberSpan(Tracer* tr, SpanName name, int fiber, std::uint64_t parent,
            std::uint64_t op, std::uint8_t tag, bool measured)
      : tr_(tr) {
    if (tr_ == nullptr) return;
    s_.id = tr_->next_id();
    s_.parent = parent;
    s_.op = op;
    s_.name = name;
    s_.fiber = fiber;
    s_.tag = tag;
    s_.measured = measured;
    s_.virt_start = sprwl::platform::now();
    switches0_ = tr_->switches();
    uncaught0_ = std::uncaught_exceptions();
    s_.host_start_ns = tr_->host_ns();
  }
  ~FiberSpan() {
    if (tr_ == nullptr) return;
    s_.host_ns = tr_->host_ns() - s_.host_start_ns;
    s_.virt_cycles = sprwl::platform::now() - s_.virt_start;
    s_.covered = tr_->switches() == switches0_;
    s_.aborted = std::uncaught_exceptions() > uncaught0_;
    tr_->push(s_);
  }
  FiberSpan(const FiberSpan&) = delete;
  FiberSpan& operator=(const FiberSpan&) = delete;

  std::uint64_t id() const { return s_.id; }

 private:
  Tracer* tr_;
  Span s_;
  std::uint64_t switches0_ = 0;
  int uncaught0_ = 0;
};

}  // namespace perfbench
