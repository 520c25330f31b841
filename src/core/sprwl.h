// SpRWL — Speculative Read-Write Lock (the paper's core contribution).
//
// Writers execute their critical sections as hardware transactions and, at
// commit time, check for active readers, self-aborting if any is found
// (base algorithm, Section 3.1 / Alg. 1). Readers execute completely
// *uninstrumented*: they advertise a per-thread flag with a fence, run
// plain code, and clear the flag — so they are immune to every HTM
// limitation (capacity, syscalls, interrupts). Safety follows from HTM's
// atomic publish plus strong isolation on the reader flags (Figs. 1-2 of
// the paper; emulated faithfully by htm::Engine, see DESIGN.md).
//
// On top of the base algorithm this implementation provides everything the
// paper describes, each independently switchable through Config:
//
//  * reader synchronization (Alg. 2): readers wait for the active writer
//    expected to finish last, and join already-waiting readers so their
//    start times align (Config::reader_sync / reader_join);
//  * writer synchronization (Alg. 3): a writer aborted by a reader delays
//    its retry so its commit lands δ cycles after the last active reader
//    ends (Config::writer_sync, delta_fraction);
//  * reader-HTM-first (§3.4): readers optimistically try one-shot HTM and
//    fall back to the uninstrumented path on capacity/exhaustion;
//  * SNZI reader tracking (§3.4): writers check one root word instead of
//    scanning the O(threads) state array (Config::use_snzi);
//  * timed waits on the timestamp counter instead of spinning (§3.4);
//  * the versioned-SGL reader-starvation fix sketched in §3.3
//    (Config::versioned_sgl, off by default as in the paper);
//  * BRAVO-style global reader bias (Config::bravo_bias, DESIGN.md §12):
//    readers under a biased lock publish into a process-global
//    bravo::ReaderTable and skip the per-lock flag plane entirely;
//    writers revoke the bias and drain the table before using the
//    per-lock scan. Combined with the lazily allocated tracking plane
//    below, a cold lock costs O(1) words — the property the million-lock
//    lock-table workload (workloads/lock_table.h) depends on.
//
// Per-lock tracking state (flag plane, SNZI tree, scheduling clocks, EMAs,
// stats) lives in a lazily allocated Plane: it is built on the first
// operation that needs it and never for locks that only ever see bias-path
// or HTM-path readers. Plane construction charges no virtual time and
// engine line ids are assigned on first *access*, so lazy allocation is
// invisible to the cost model — runs are bit-identical with eager
// allocation.
//
// Duration estimates use a per-critical-section-id exponential moving
// average sampled on a single thread (§3.2.1); critical sections are
// identified by the integer cs_id passed to read()/write().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/cacheline.h"
#include "common/ema.h"
#include "common/platform.h"
#include "common/scope_exit.h"
#include "common/trace.h"
#include "core/bravo.h"
#include "core/sabotage.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/sgl.h"
#include "locks/stats.h"
#include "snzi/snzi.h"

namespace sprwl::core {

/// Named scheduling configurations matching the ablation of Fig. 5.
enum class SchedulingVariant {
  kNoSched,  ///< base algorithm only (Section 3.1)
  kRWait,    ///< readers wait for the last active writer
  kRSync,    ///< RWait + readers join already-waiting readers
  kFull,     ///< RSync + writer synchronization (the default SpRWL)
};

struct Config {
  int max_threads = 64;
  /// HTM attempts for writers before the SGL fallback (capacity aborts
  /// activate the fallback immediately, as in the paper's retry policy).
  int max_retries = 10;
  bool reader_sync = true;
  bool reader_join = true;
  bool writer_sync = true;
  bool reader_htm_first = true;
  bool use_snzi = false;
  bool versioned_sgl = false;
  /// δ as a fraction of the writer's expected duration (paper default 1/2).
  double delta_fraction = 0.5;
  /// SNZI tree depth; 0 = auto-size so there are roughly max_threads/2
  /// leaves (bounded contention per leaf, logarithmic update cost).
  int snzi_levels = 0;

  // --- BRAVO global reader bias (DESIGN.md §12) ---------------------------
  /// Route readers through the process-global bravo_table while this lock's
  /// bias is on: the reader CASes its hashed slot there and never touches
  /// the per-lock flag plane. Writers revoke the bias (kBiasRevoking →
  /// table drain → kBiasOff) before attempting, and their commit scan
  /// transactionally subscribes the bias word, so a concurrent re-bias
  /// aborts them. Requires bravo_table.
  bool bravo_bias = false;
  /// The shared visible-readers table. One table serves every lock of the
  /// workload; locks register for a dense id at construction.
  std::shared_ptr<bravo::ReaderTable> bravo_table;
  /// Consecutive reader-only acquisitions (streak, reset by any writer)
  /// before a reader tries to re-arm a revoked bias.
  int bravo_rebias_reads = 16;
  /// Revocation-cost-proportional inhibition (the BRAVO paper's rule): a
  /// re-bias is additionally suppressed until the bias has been off for
  /// this multiple of the sampled revocation latency.
  double bravo_rebias_cooldown = 8.0;

  // --- MVCC snapshot readers (DESIGN.md §14) ------------------------------
  /// Third acquisition mode: read_snapshot() pins the engine's global
  /// version clock at entry and serves every Shared<T> load inside the
  /// section from that snapshot (current memory when the line is unchanged
  /// since the pin, the retained prior version otherwise). The reader
  /// registers NOTHING — no flag plane, no SNZI arrival, no bravo slot —
  /// so writers' commit-time scans and the deferral heuristics never
  /// observe snapshot readers and writer latency is independent of how
  /// long the scan runs. Requires an installed engine with
  /// EngineConfig::retain_versions > 0; without one (or with this flag
  /// off) read_snapshot() degrades to a plain read().
  bool snapshot_readers = false;

  // --- graceful degradation under adverse schedules (DESIGN.md §8) --------
  /// Exponential backoff between retries after conflict/spurious aborts
  /// (abort storms): first delay, doubling up to the cap. Reader aborts use
  /// writer_wait (Alg. 3) instead; lock-busy aborts wait for the SGL.
  /// base = 0 disables backoff.
  std::uint64_t backoff_base_cycles = 120;
  /// Total virtual time a writer may spend retrying HTM (attempts, waits
  /// and backoffs) before escalating to the SGL. 0 = unbounded. Far above
  /// any healthy retry sequence; bounds pathological abort storms.
  std::uint64_t writer_retry_budget_cycles = 8'000'000;
  /// Stalled-reader watchdog: a writer continuously aborted by readers for
  /// longer than max(kReaderStallSlackCycles, multiplier * sampled reader
  /// EMA) stops burning transactions and escalates to the (versioned) SGL —
  /// the reader is presumed descheduled with its flag raised. multiplier
  /// <= 0 disables.
  double reader_stall_multiplier = 16.0;
  /// Lemming-effect avoidance: aborts caused purely by the busy fallback
  /// lock do not consume retry attempts, so one writer on the SGL cannot
  /// cascade the whole writer population onto it.
  bool lemming_avoidance = true;

  /// Checker self-validation ONLY (tests/check, core/sabotage.h): one
  /// deliberately broken protocol step. Never set in production.
  Sabotage sabotage = Sabotage::kNone;

  // --- fixed tuning (no workload varies these) ----------------------------
  /// HTM attempts for the optimistic reader path (§3.4).
  static constexpr int kReaderHtmRetries = 10;
  /// Smoothing factor of the per-critical-section duration EMAs (§3.2.1).
  /// The plane's EMAs are built with DurationEma's default alpha.
  static constexpr double kEmaAlpha = DurationEma::kDefaultAlpha;
  /// Thread that samples critical-section durations (§3.2.1).
  static constexpr int kSamplerTid = 0;
  /// Expected duration, in cycles, used before the first sample arrives.
  static constexpr std::uint64_t kBootstrapEstimate = 500;
  /// Cap of the exponential writer backoff (see backoff_base_cycles).
  static constexpr std::uint64_t kBackoffMaxCycles = 8'192;
  /// Floor of the stalled-reader watchdog threshold (see
  /// reader_stall_multiplier).
  static constexpr std::uint64_t kReaderStallSlackCycles = 64'000;

  static Config variant(SchedulingVariant v, int max_threads) {
    Config c;
    c.max_threads = max_threads;
    switch (v) {
      case SchedulingVariant::kNoSched:
        c.reader_sync = c.reader_join = c.writer_sync = false;
        break;
      case SchedulingVariant::kRWait:
        c.reader_join = c.writer_sync = false;
        break;
      case SchedulingVariant::kRSync:
        c.writer_sync = false;
        break;
      case SchedulingVariant::kFull:
        break;
    }
    return c;
  }
};

class SpRWLock {
 public:
  /// Explicit-abort codes (Intel _xabort-style).
  static constexpr std::uint8_t kCodeLockBusy = 0x01;
  static constexpr std::uint8_t kCodeReader = 0x02;

  explicit SpRWLock(Config cfg) : cfg_(std::move(cfg)) {
    if (cfg_.bravo_bias) {
      if (cfg_.bravo_table == nullptr) {
        throw std::invalid_argument(
            "SpRWLock: Config::bravo_bias requires a shared "
            "Config::bravo_table");
      }
      lock_id_ = cfg_.bravo_table->register_lock();
      bias_.raw_store(kBiasOn);  // read-only cold locks never build a plane
      if (cfg_.bravo_table->sharded()) {
        // Per-shard revocation telemetry (DESIGN.md §16): EMA and cooldown
        // anchor per table shard, so a saturated remote socket throttles
        // only its own readers' re-bias, not the whole process. One lazily
        // allocated block behind one pointer: only sharded-bravo locks
        // pay, and a cold lock's shell carries a single null word for the
        // million-lock footprint bench. The scratch member is the drain's
        // per-shard cycle scratch — safe unsynchronized because the
        // kBiasOn→kBiasRevoking CAS admits one drainer per lock at a time.
        shard_revoke_ = std::make_unique<ShardRevoke[]>(
            static_cast<std::size_t>(cfg_.bravo_table->shard_count()));
      }
    }
  }

  ~SpRWLock() { delete plane_.load(std::memory_order_acquire); }
  SpRWLock(const SpRWLock&) = delete;
  SpRWLock& operator=(const SpRWLock&) = delete;

  /// Leaf count of the SNZI tree, if one exists (tests pin the auto-sizing
  /// here); 0 when tracking is flags-only. Forces the lazy plane: callers
  /// asking about tree geometry want the tree the lock *would* use.
  std::size_t snzi_leaf_count() {
    if (!cfg_.use_snzi) return 0;
    Plane& p = plane();
    return p.snzi_ != nullptr ? p.snzi_->leaf_count() : 0;
  }

  /// Virtual cycles spent in commit-time reader scans that ran to
  /// completion without finding a reader (a scan that finds one returns
  /// the abort before the sample is taken), and how many such scans there
  /// were. The NUMA bench reports their ratio per point.
  std::uint64_t commit_scan_cycles() const {
    const Plane* p = plane_peek();
    if (p == nullptr) return 0;
    std::uint64_t n = 0;
    for (const auto& s : p->scan_stats_) n += s.value.cycles;
    return n;
  }
  std::uint64_t commit_scan_count() const {
    const Plane* p = plane_peek();
    if (p == nullptr) return 0;
    std::uint64_t n = 0;
    for (const auto& s : p->scan_stats_) n += s.value.scans;
    return n;
  }

  /// Executes f as a read-only critical section identified by cs_id.
  template <class F>
  void read(int cs_id, F&& f) {
    read_impl(cs_id, locks::kNoDeadline, std::forward<F>(f));
  }

  /// read() bounded by a relative virtual-time budget (cycles). Returns
  /// kTimeout — with every advertisement unwound (flag/SNZI/slot/waiting
  /// version) — if the lock cannot be entered before the deadline. A zero
  /// or clock-wrapping budget throws std::invalid_argument at entry.
  template <class F>
  locks::AcquireResult try_read_for(int cs_id, std::uint64_t budget_cycles,
                                    F&& f) {
    return read_impl(cs_id, locks::checked_deadline(budget_cycles),
                     std::forward<F>(f));
  }

  /// write() bounded by a relative virtual-time budget (cycles). Once the
  /// section body has committed (HTM) or the SGL is held (point of no
  /// return), the operation completes even if the deadline passes
  /// mid-section; kTimeout is only returned from pre-entry waits, with the
  /// writer flag cleared and any partial bias revocation re-armed.
  template <class F>
  locks::AcquireResult try_write_for(int cs_id, std::uint64_t budget_cycles,
                                     F&& f) {
    return write_impl(cs_id, locks::checked_deadline(budget_cycles),
                      std::forward<F>(f));
  }

  /// Executes f as a *snapshot* read section (Config::snapshot_readers,
  /// DESIGN.md §14): pins the engine's version clock at entry and routes
  /// every Shared<T> load inside f through the multi-version lookup, so f
  /// observes the committed state as of the pin no matter how long it
  /// runs — and registers nothing a writer could wait on. f must be
  /// read-only and re-runnable: when the pinned version leaves the bounded
  /// version ring mid-section (htm::SnapshotMiss) the section re-runs as a
  /// normal registered read, the same re-execution contract the HTM-first
  /// reader path already imposes.
  template <class F>
  void read_snapshot(int cs_id, F&& f) {
    htm::Engine* engine = htm::Engine::current();
    if (!cfg_.snapshot_readers || engine == nullptr ||
        !engine->retains_versions()) {
      read(cs_id, std::forward<F>(f));
      return;
    }
    checked_tid();  // loud entry validation, like every other entry point
    for (;;) {
      // Pin only while the SGL is observed free and unchanged across the
      // pin. An SGL-fallback writer publishes each store of its section
      // with its own write version, so a snapshot pinned mid-fallback
      // could observe a torn prefix of that section; HTM writers are
      // immune (one commit publishes one version). Same state on both
      // sides of the pin ⇒ no acquisition happened in between (lock and
      // unlock each bump the word), so the pin cannot straddle one. The
      // re-check must NOT go through Shared::load — the thread is pinned
      // by then and the lookup would serve the word as of the pin,
      // validating unconditionally — so it reads raw and charges the load
      // explicitly.
      const std::uint64_t s0 = gl_.state();
      if ((s0 & 1) == 0) {
        engine->snapshot_begin();
        platform::advance(g_costs.load);
        if (gl_.state_raw() == s0) break;
        engine->snapshot_end();
      }
      platform::pause();
    }
    bool missed = false;
    {
      // The unpin lives in a ScopeExit so every unwind path — SnapshotMiss,
      // an exception out of f, the chaos harness's RunCancelled — releases
      // the reclamation pin; a leaked pin silently wedges version
      // reclamation for the rest of the run.
      ScopeExit unpin([&] { engine->snapshot_end(); });
      fault::checkpoint(fault::InjectPoint::kReadEnter, this);
      try {
        f();
        fault::checkpoint(fault::InjectPoint::kReadExit, this);
      } catch (const htm::SnapshotMiss&) {
        missed = true;
      }
    }
    if (!missed) {
      snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // The ring reclaimed a version this snapshot still needed (long
    // section + small retain_versions). Fall back to a registered read —
    // correct, just no longer invisible to writers.
    snapshot_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    read_impl(cs_id, locks::kNoDeadline, std::forward<F>(f));
  }

 private:
  template <class F>
  locks::AcquireResult read_impl(int cs_id, std::uint64_t deadline, F&& f) {
    const int tid = checked_tid();

    if (cfg_.bravo_bias) {
      switch (try_bias_read(tid, deadline, f)) {
        case BiasRead::kDone: return locks::AcquireResult::kAcquired;
        case BiasRead::kTimeout:
          trace::emit(trace::Event::kReadTimeout);
          return locks::AcquireResult::kTimeout;
        case BiasRead::kSlow: break;
      }
    }

    if (cfg_.reader_htm_first && try_reader_htm(f)) {
      trace::emit(trace::Event::kReadHtmCommit);
      htm_reads_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.bravo_bias) maybe_rebias(tid);
      return locks::AcquireResult::kAcquired;
    }

    // Uninstrumented path.
    Plane& p = plane();
    bool have_pass = false;       // versioned-SGL bypass (§3.3)
    std::uint64_t pass_below = 0;
    for (;;) {
      // Between iterations nothing is advertised, so expiry needs no
      // unwind here (waiting_ver_ is cleared before each defer exit).
      if (locks::deadline_expired(deadline)) {
        trace::emit(trace::Event::kReadTimeout);
        return locks::AcquireResult::kTimeout;
      }
      if (cfg_.reader_sync && !have_pass) {
        if (!readers_wait(p, tid, deadline)) {
          trace::emit(trace::Event::kReadTimeout);
          return locks::AcquireResult::kTimeout;
        }
      }
      if (cfg_.writer_sync) {
        p.clock_r_[static_cast<std::size_t>(tid)]->store(
            platform::now() + read_estimate(p, cs_id),
            std::memory_order_relaxed);
      }
      advertise_reader(p, tid);
      if (cfg_.versioned_sgl) {
        p.waiting_ver_[static_cast<std::size_t>(tid)]->store(
            0, std::memory_order_release);
      }
      if (!gl_.is_locked()) break;
      if (have_pass && gl_.version() > pass_below) break;  // reader priority
      // Defer to the SGL holder (Alg. 1, reader_gl_sync).
      trace::emit(trace::Event::kReaderDeferSgl);
      unadvertise_reader(p, tid);
      if (cfg_.versioned_sgl) {
        const std::uint64_t v0 = gl_.version();
        p.waiting_ver_[static_cast<std::size_t>(tid)]->store(
            (v0 << 1) | 1, std::memory_order_seq_cst);
        while (gl_.is_locked() && gl_.version() <= v0) {
          if (locks::deadline_expired(deadline)) {
            // Retract the published waiting version before abandoning or a
            // versioned-SGL writer's drain spins on a phantom waiter.
            p.waiting_ver_[static_cast<std::size_t>(tid)]->store(
                0, std::memory_order_release);
            trace::emit(trace::Event::kReadTimeout);
            return locks::AcquireResult::kTimeout;
          }
          locks::deadline_pause(deadline);
        }
        have_pass = true;
        pass_below = v0;
      } else {
        while (gl_.is_locked()) {
          if (locks::deadline_expired(deadline)) {
            trace::emit(trace::Event::kReadTimeout);
            return locks::AcquireResult::kTimeout;
          }
          locks::deadline_pause(deadline);
        }
      }
    }

    // Dangerous window: the flag is raised but the section has not run yet.
    // A preemption injected here is what the stalled-reader watchdog and
    // the chaos harness exercise. The flag is the point of no return for a
    // timed reader: it is advertised, so the section runs even if the
    // deadline passes during the preemption (unwinding here would buy
    // nothing — the cleanup cost equals the section's own release).
    fault::checkpoint(fault::InjectPoint::kReadEnter, this);
    trace::emit(trace::Event::kReadUninsEnter);
    const std::uint64_t cs_start = platform::now();
    {
      ScopeExit release([&] {
        htm::memory_fence();  // reads must complete before the flag clears
        unadvertise_reader(p, tid);
        trace::emit(trace::Event::kReadUninsExit);
      });
      std::forward<F>(f)();
      fault::checkpoint(fault::InjectPoint::kReadExit, this);
    }
    if (tid == Config::kSamplerTid) {
      p.read_ema_[ema_slot(cs_id)].record(platform::now() - cs_start);
      read_estimate_hint_.store(p.read_ema_[ema_slot(cs_id)].estimate(),
                                std::memory_order_relaxed);
    }
    p.modes_.record_read(locks::CommitMode::kUnins);
    if (cfg_.bravo_bias) maybe_rebias(tid);
    return locks::AcquireResult::kAcquired;
  }

 public:

  /// Executes f as an update critical section identified by cs_id.
  template <class F>
  void write(int cs_id, F&& f) {
    write_impl(cs_id, locks::kNoDeadline, std::forward<F>(f));
  }

 private:
  template <class F>
  locks::AcquireResult write_impl(int cs_id, std::uint64_t deadline, F&& f) {
    const int tid = checked_tid();
    htm::Engine* engine = &htm::Engine::require("SpRWLock::write");

    if (cfg_.bravo_bias) {
      reader_streak_.store(0, std::memory_order_relaxed);
    }

    // Advertise through the flag plane only when one exists (or bravo is
    // off, which allocates it here as before): under bravo a cold lock has
    // no plane and therefore no slow-path readers to schedule against —
    // forcing a plane here would defeat the O(1)-word cold footprint.
    const bool flagged =
        cfg_.reader_sync && !(cfg_.bravo_bias && plane_peek() == nullptr);
    Plane* wp = flagged ? &plane() : plane_peek();
    if (flagged) {
      // Advertise the writer and its expected end time (Alg. 2).
      wp->clock_w_[static_cast<std::size_t>(tid)]->store(
          platform::now() + write_estimate(*wp, cs_id),
          std::memory_order_relaxed);
      wp->state_[static_cast<std::size_t>(tid)].store(kWriter);
      htm::memory_fence();
    }
    ScopeExit clear_flag([&] {
      if (flagged) wp->state_[static_cast<std::size_t>(tid)].store(kIdle);
    });
    fault::checkpoint(fault::InjectPoint::kWriteEnter, this);

    // Escalation to the (versioned) SGL; `why` records which degradation
    // path fired so chaos runs can tell retry exhaustion from a stalled
    // reader or an exhausted budget. Returns false if the deadline expired
    // before the SGL was acquired (the fallback itself is then the last
    // wait a timed writer can abandon — once the SGL is held the write
    // runs to completion).
    const auto escalate = [&](locks::Escalation why, int attempts) -> bool {
      plane().modes_.record_escalation(why);
      trace::emit(why == locks::Escalation::kStalledReader
                      ? trace::Event::kStalledReaderEscalate
                      : trace::Event::kWriteSglEnter,
                  static_cast<std::uint32_t>(attempts));
      if (!fallback_write(cs_id, tid, deadline, f)) return false;
      trace::emit(trace::Event::kWriteSglExit);
      plane().modes_.record_write(locks::CommitMode::kGl);
      return true;
    };
    const auto timed_out = [&]() -> locks::AcquireResult {
      trace::emit(trace::Event::kWriteTimeout);
      return locks::AcquireResult::kTimeout;  // clear_flag unwinds the flag
    };

    int attempts = 0;
    std::uint64_t backoff = 0;       // current exponential delay
    std::uint64_t retry_start = 0;   // first attempt of the current streak
    std::uint64_t stall_since = 0;   // first reader abort of the streak
    bool retrying = false;
    bool stalled = false;
    for (;;) {
      if (locks::deadline_expired(deadline)) return timed_out();
      while (gl_.is_locked()) {
        if (locks::deadline_expired(deadline)) return timed_out();
        locks::deadline_pause(deadline);
      }
      // Revoke the bias before every attempt: the drain guarantees no
      // fast-path reader is live, and the in-transaction bias subscription
      // below catches any re-bias that slips in after it (DESIGN.md §12).
      // A drain abandoned on deadline re-arms the bias (see revoke_bias).
      if (cfg_.bravo_bias && !revoke_bias(deadline)) return timed_out();
      ++attempts;
      const std::uint64_t attempt_start = platform::now();
      if (!retrying) {
        retrying = true;
        retry_start = attempt_start;
      }
      const htm::TxStatus status =
          engine->try_transaction([&]() -> std::optional<htm::Abort> {
            // Subscription: a later SGL acquisition aborts this attempt.
            if (gl_.is_locked()) return htm::Abort{kCodeLockBusy};
            f();
            return check_for_readers(engine, tid);
          });
      if (status.committed()) {
        // Pin the data commit's version before clear_flag's kIdle publish
        // overwrites last_commit_version() (the SI checker needs the
        // version that stamped the section's lines, not the metadata's).
        engine->note_section_version();
        if (tid == Config::kSamplerTid) {
          if (Plane* p = plane_peek()) {
            p->write_ema_[ema_slot(cs_id)].record(platform::now() -
                                                  attempt_start);
          }
        }
        trace::emit(trace::Event::kWriteHtmCommit,
                    static_cast<std::uint32_t>(attempts));
        // Inline counter (like htm_reads_): recording through the plane's
        // per-thread ModeRecorder would allocate the plane for a lock whose
        // only traffic is HTM commits — exactly the cold case the lazy
        // plane exists for. stats() merges the counters, so totals match.
        htm_writes_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      plane().modes_.record_abort(status, kCodeLockBusy, kCodeReader);
      const bool lock_busy = status.cause == htm::AbortCause::kExplicit &&
                             status.code == kCodeLockBusy;
      const bool reader_abort = status.cause == htm::AbortCause::kExplicit &&
                                status.code == kCodeReader;
      if (reader_abort) {
        if (Plane* p = plane_peek()) {
          ++p->reader_aborts_[static_cast<std::size_t>(tid)].value;
        } else {
          cold_reader_aborts_.fetch_add(1, std::memory_order_relaxed);
        }
        trace::emit(trace::Event::kWriteAbortReader);
      }
      if (status.cause == htm::AbortCause::kCapacity) {
        // Retrying cannot help a section that does not fit; fall back now.
        if (!escalate(locks::Escalation::kCapacity, attempts)) {
          return timed_out();
        }
        break;
      }
      if (lock_busy && cfg_.lemming_avoidance) {
        // The abort says nothing about *this* section — the fallback lock
        // was simply held. Forgive the attempt (and restart the budget
        // clock: waiting for the SGL is not retrying) so one SGL writer
        // does not drag the whole population onto the global lock.
        --attempts;
        retrying = false;
        stalled = false;
        plane().modes_.record_escalation(locks::Escalation::kLemmingAvoided);
        trace::emit(trace::Event::kLemmingAvoided);
        continue;
      }
      if (attempts >= cfg_.max_retries) {
        if (!escalate(locks::Escalation::kRetryExhausted, attempts)) {
          return timed_out();
        }
        break;
      }
      const std::uint64_t now = platform::now();
      if (cfg_.writer_retry_budget_cycles != 0 &&
          now - retry_start > cfg_.writer_retry_budget_cycles) {
        if (!escalate(locks::Escalation::kBudgetExhausted, attempts)) {
          return timed_out();
        }
        break;
      }
      if (reader_abort) {
        if (!stalled) {
          stalled = true;
          stall_since = attempt_start;
        }
        const std::uint64_t threshold = stall_threshold();
        if (threshold != 0 && now - stall_since > threshold) {
          // The reader blocking us has been active far longer than readers
          // ever run: presume it descheduled with its flag raised and stop
          // burning transactions against it.
          if (!escalate(locks::Escalation::kStalledReader, attempts)) {
            return timed_out();
          }
          break;
        }
        if (cfg_.writer_sync) {
          trace::emit(trace::Event::kWriterWait);
          writer_wait(cs_id, tid, deadline);
        }
      } else {
        stalled = false;
        // Conflict or interrupt: back off exponentially so an abort storm
        // degrades throughput instead of melting it.
        if (cfg_.backoff_base_cycles != 0) {
          backoff = backoff == 0
                        ? cfg_.backoff_base_cycles
                        : std::min<std::uint64_t>(backoff * 2,
                                                  Config::kBackoffMaxCycles);
          trace::emit(trace::Event::kWriterBackoff,
                      static_cast<std::uint32_t>(backoff));
          const std::uint64_t target =
              locks::cap_wait(now + backoff, deadline);
          if (target > platform::now()) platform::wait_until(target);
        }
      }
    }
    fault::checkpoint(fault::InjectPoint::kWriteExit, this);
    return locks::AcquireResult::kAcquired;
  }

 public:

  locks::LockStats stats() const {
    locks::LockStats s;
    if (const Plane* p = plane_peek()) s = p->modes_.snapshot();
    s.reads.htm += htm_reads_.load(std::memory_order_relaxed);
    s.reads.unins += bias_reads_.load(std::memory_order_relaxed);
    s.writes.htm += htm_writes_.load(std::memory_order_relaxed);
    return s;
  }

  /// Writer aborts caused by an active reader (the paper's "reader" abort
  /// class, reported separately from other explicit aborts).
  std::uint64_t reader_abort_count() const {
    std::uint64_t n = cold_reader_aborts_.load(std::memory_order_relaxed);
    if (const Plane* p = plane_peek()) {
      for (const auto& c : p->reader_aborts_) n += c.value;
    }
    return n;
  }

  void reset_stats() {
    if (Plane* p = plane_.load(std::memory_order_acquire)) {
      p->modes_.reset();
      for (auto& c : p->reader_aborts_) c.value = 0;
      for (auto& s : p->scan_stats_) s.value = {};
    }
    htm_reads_.store(0, std::memory_order_relaxed);
    htm_writes_.store(0, std::memory_order_relaxed);
    bias_reads_.store(0, std::memory_order_relaxed);
    snapshot_reads_.store(0, std::memory_order_relaxed);
    snapshot_fallbacks_.store(0, std::memory_order_relaxed);
    cold_reader_aborts_.store(0, std::memory_order_relaxed);
    revocations_.store(0, std::memory_order_relaxed);
    revoke_cycles_.store(0, std::memory_order_relaxed);
    rebias_count_.store(0, std::memory_order_relaxed);
  }

  // --- BRAVO introspection (tests and the lock-table bench) ---------------

  /// Raw view of the bias word (no virtual-time charge).
  bool bias_is_on() const { return bias_.raw_load() == kBiasOn; }
  std::uint64_t bias_read_count() const {
    return bias_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t revocation_count() const {
    return revocations_.load(std::memory_order_relaxed);
  }
  /// Total virtual cycles writers spent in revocation drains.
  std::uint64_t revocation_cycles() const {
    return revoke_cycles_.load(std::memory_order_relaxed);
  }
  std::uint64_t rebias_count() const {
    return rebias_count_.load(std::memory_order_relaxed);
  }
  /// Per-shard revocation-latency EMA (socket-sharded bravo tables only;
  /// 0 = no sample yet, or the table is not sharded). The re-bias cooldown
  /// a reader on `shard`'s socket observes is bravo_rebias_cooldown times
  /// this.
  std::uint64_t shard_revoke_ema(int shard) const {
    if (shard_revoke_ == nullptr || shard < 0 ||
        shard >= cfg_.bravo_table->shard_count()) {
      return 0;
    }
    return shard_revoke_[shard].ema.load(std::memory_order_relaxed);
  }
  /// Snapshot sections that completed against their pinned version.
  std::uint64_t snapshot_read_count() const {
    return snapshot_reads_.load(std::memory_order_relaxed);
  }
  /// Snapshot sections whose pinned version left the bounded ring
  /// (htm::SnapshotMiss) and re-ran as a registered read.
  std::uint64_t snapshot_fallback_count() const {
    return snapshot_fallbacks_.load(std::memory_order_relaxed);
  }
  /// Dense id in the shared reader table (bravo only; 0 otherwise).
  std::uint32_t lock_id() const noexcept { return lock_id_; }
  bool has_plane() const noexcept { return plane_peek() != nullptr; }

  /// Raw (uncharged) view of every per-lock reader-tracking structure at
  /// quiesce: no flag raised, no SNZI arrival without its depart. The
  /// cancellation-unwind chaos tests assert this after timed readers raced
  /// preemptions and abort storms — a phantom reader left by an abandoned
  /// acquisition shows up here. Bravo table slots are global state; assert
  /// those through ReaderTable directly.
  bool tracking_quiescent() const {
    const Plane* p = plane_peek();
    if (p == nullptr) return true;
    if (p->snzi_ != nullptr && p->snzi_->root_count_raw() != 0) return false;
    for (const auto& s : p->state_) {
      if (s.raw_load() == kReader) return false;
    }
    return true;
  }

  /// Bytes this lock owns: the O(1)-word shell plus, if some operation
  /// forced it, the lazily allocated tracking plane. The shared bravo
  /// table is *not* included — it amortizes over every registered lock
  /// (workloads report it separately).
  std::size_t footprint_bytes() const {
    std::size_t b = sizeof(*this);
    if (shard_revoke_ != nullptr) {
      b += static_cast<std::size_t>(cfg_.bravo_table->shard_count()) *
           sizeof(ShardRevoke);
    }
    if (const Plane* p = plane_peek()) b += p->bytes();
    return b;
  }

  const Config& config() const noexcept { return cfg_; }
  static const char* name() noexcept { return "SpRWL"; }

 private:
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kReader = 1;  // bit 0: OR-summary early exit
  static constexpr std::uint64_t kWriter = 2;  // bit 1: invisible to the scan
  /// 8-byte flags per 64-byte cache line (batched commit scan granularity).
  static constexpr std::size_t kFlagsPerLine = 8;
  static constexpr std::size_t kEmaSlots = 256;
  // Bias word states (DESIGN.md §12). Writers treat anything != kBiasOff as
  // "fast readers may exist": kBiasRevoking keeps a second writer out of
  // the section until the first writer's drain completes and publishes
  // kBiasOff — the two-writer revocation race.
  static constexpr std::uint64_t kBiasOff = 0;
  static constexpr std::uint64_t kBiasOn = 1;
  static constexpr std::uint64_t kBiasRevoking = 2;

  struct ScanStat {
    std::uint64_t cycles = 0;
    std::uint64_t scans = 0;
  };

  /// Everything whose size scales with max_threads (or holds a tree):
  /// reader flags, scheduling clocks, EMAs, SNZI, stats. Built on first
  /// need; cold locks never pay for it. Construction does plain
  /// allocation + raw stores only — no engine access, no virtual time —
  /// and the engine assigns line ids on first *access*, so lazy
  /// allocation is bit-identical to eager allocation.
  struct Plane {
    explicit Plane(const Config& cfg)
        : state_(static_cast<std::size_t>(cfg.max_threads)),
          clock_w_(static_cast<std::size_t>(cfg.max_threads)),
          clock_r_(static_cast<std::size_t>(cfg.max_threads)),
          waiting_for_(static_cast<std::size_t>(cfg.max_threads)),
          waiting_ver_(static_cast<std::size_t>(cfg.max_threads)),
          reader_aborts_(static_cast<std::size_t>(cfg.max_threads)),
          scan_stats_(static_cast<std::size_t>(cfg.max_threads)),
          modes_(cfg.max_threads) {
      for (auto& w : waiting_for_) w->store(-1, std::memory_order_relaxed);
      if (cfg.use_snzi) {
        int levels = cfg.snzi_levels;
        if (levels == 0) {
          levels = 1;
          // The cap follows max_threads (clamped only by the tree's own
          // limit): a hard `levels < 8` clamp here used to silently
          // under-size the tree past 256 threads — 128 leaves for 1024
          // threads, quadrupling per-leaf contention.
          while ((1 << (levels - 1)) * 2 < cfg.max_threads &&
                 levels < snzi::Snzi::kMaxLevels) {
            ++levels;
          }
        }
        snzi_ = std::make_unique<snzi::Snzi>(snzi::Snzi::Config{levels});
      }
    }

    /// Heap bytes of the plane (per-lock footprint accounting).
    std::size_t bytes() const {
      std::size_t b = sizeof(Plane);
      b += state_.capacity() * sizeof(htm::Shared<std::uint64_t>);
      b += clock_w_.capacity() *
           sizeof(CacheLinePadded<std::atomic<std::uint64_t>>);
      b += clock_r_.capacity() *
           sizeof(CacheLinePadded<std::atomic<std::uint64_t>>);
      b += waiting_for_.capacity() * sizeof(CacheLinePadded<std::atomic<int>>);
      b += waiting_ver_.capacity() *
           sizeof(CacheLinePadded<std::atomic<std::uint64_t>>);
      b += reader_aborts_.capacity() * sizeof(CacheLinePadded<std::uint64_t>);
      b += scan_stats_.capacity() * sizeof(CacheLinePadded<ScanStat>);
      if (snzi_ != nullptr) b += snzi_->footprint_bytes();
      b += modes_.footprint_bytes();
      return b;
    }

    // Packed like the paper's state[N] array: a writer's commit-time scan
    // touches ~N/8 lines (it must fit HTM capacity), at the price that one
    // reader's flag store invalidates the whole line of 8 flags — the
    // trade-off the SNZI variant (one root word) removes.
    aligned_vector<htm::Shared<std::uint64_t>> state_;
    std::vector<CacheLinePadded<std::atomic<std::uint64_t>>> clock_w_;
    std::vector<CacheLinePadded<std::atomic<std::uint64_t>>> clock_r_;
    std::vector<CacheLinePadded<std::atomic<int>>> waiting_for_;
    std::vector<CacheLinePadded<std::atomic<std::uint64_t>>> waiting_ver_;
    std::vector<CacheLinePadded<std::uint64_t>> reader_aborts_;
    std::vector<CacheLinePadded<ScanStat>> scan_stats_;
    std::unique_ptr<snzi::Snzi> snzi_;
    // Inline with alpha Config::kEmaAlpha: one plane allocation instead of
    // 2 * kEmaSlots + 1, and sizeof(Plane) counts them.
    DurationEma read_ema_[kEmaSlots];
    DurationEma write_ema_[kEmaSlots];
    locks::ModeRecorder modes_;
  };

  static std::size_t ema_slot(int cs_id) noexcept {
    return static_cast<std::size_t>(cs_id) % kEmaSlots;
  }

  Plane* plane_peek() const noexcept {
    return plane_.load(std::memory_order_acquire);
  }

  /// The lazily allocated tracking plane; builds it on first call.
  Plane& plane() {
    Plane* p = plane_peek();
    return p != nullptr ? *p : install_plane();
  }

  Plane& install_plane() {
    auto fresh = std::make_unique<Plane>(cfg_);
    Plane* expected = nullptr;
    if (plane_.compare_exchange_strong(expected, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      Plane* p = fresh.release();
      if (cfg_.bravo_bias) {
        // Strong-isolation publish: a writer's commit scan subscribes this
        // word to short-circuit when no plane exists, so the install must
        // bump its line version (and thereby abort such a writer) exactly
        // like a reader flag store would. Never reached inside a
        // transaction: the bravo scan only dereferences the plane *after*
        // reading 1 here. Bravo-off locks never touch the word at all.
        plane_published_.store(1);
      }
      return *p;
    }
    return *expected;  // lost the install race; `fresh` frees itself
  }

  /// Entry-point thread validation: a dense id >= max_threads would index
  /// out of bounds in every per-thread array of this lock, and release
  /// builds used to do exactly that (the assert compiled away). Failing
  /// loudly at section entry turns a mis-sized Config into a diagnosable
  /// error instead of silent corruption.
  int checked_tid() const {
    const int tid = platform::thread_id();
    if (tid < 0 || tid >= cfg_.max_threads) {
      throw std::out_of_range(
          "SpRWLock: thread id " + std::to_string(tid) +
          " outside [0, max_threads=" + std::to_string(cfg_.max_threads) +
          "); raise Config::max_threads or give the thread a dense id "
          "(sim::Simulator / ThreadIdScope)");
    }
    return tid;
  }

  std::uint64_t read_estimate(Plane& p, int cs_id) const {
    const std::uint64_t e = p.read_ema_[ema_slot(cs_id)].estimate();
    return e != 0 ? e : Config::kBootstrapEstimate;
  }
  std::uint64_t write_estimate(Plane& p, int cs_id) const {
    const std::uint64_t e = p.write_ema_[ema_slot(cs_id)].estimate();
    return e != 0 ? e : Config::kBootstrapEstimate;
  }

  /// How long a writer tolerates consecutive reader aborts before presuming
  /// the blocking reader is stalled (descheduled with its flag raised).
  /// Derived from the observed reader duration: a healthy reader finishes
  /// within a few EMAs, so waiting `reader_stall_multiplier` times that is
  /// evidence the reader is not running. 0 disables the watchdog.
  std::uint64_t stall_threshold() const {
    if (cfg_.reader_stall_multiplier <= 0.0) return 0;
    const auto scaled = static_cast<std::uint64_t>(
        cfg_.reader_stall_multiplier *
        static_cast<double>(read_estimate_hint_.load(std::memory_order_relaxed)));
    return std::max(Config::kReaderStallSlackCycles, scaled);
  }

  // --- BRAVO fast path / revocation / re-bias (DESIGN.md §12) -------------

  /// Outcome of the biased fast path: section ran, deadline expired (slot
  /// already unwound), or "take the slow path" (bias off, slot collision,
  /// or a concurrent revocation/SGL writer won the race).
  enum class BiasRead { kDone, kTimeout, kSlow };

  /// Biased reader fast path: publish (lock, tid) in the global table and
  /// run the section without ever touching the per-lock plane.
  template <class F>
  BiasRead try_bias_read(int tid, std::uint64_t deadline, F&& f) {
    if (bias_.load() != kBiasOn) return BiasRead::kSlow;
    bravo::ReaderTable& table = *cfg_.bravo_table;
    const std::size_t slot = table.slot_of(lock_id_, tid);
    if (!table.occupy(slot, lock_id_, tid)) return BiasRead::kSlow;  // collision
    htm::memory_fence();  // publish the slot before validating bias / SGL
    if (bias_.load() != kBiasOn || gl_.is_locked()) {
      // Dekker with the writer (publish-slot/check-bias vs
      // publish-revoking/scan-slots): losing the race here means the
      // writer's drain may already have passed our line, so back out and
      // register where the writer is looking.
      table.release(slot, tid);
      return BiasRead::kSlow;
    }
    fault::checkpoint(fault::InjectPoint::kReadEnter, this);
    if (locks::deadline_expired(deadline)) {
      // Expired while parked at the checkpoint (the chaos preemption
      // window). The slot is published, so the unwind MUST release it — a
      // leaked slot wedges every later revocation drain. The sabotage
      // skips exactly this release for the checker's self-validation.
      if (cfg_.sabotage != Sabotage::kTimeoutLeaksSlot) {
        table.release(slot, tid);
      }
      return BiasRead::kTimeout;
    }
    trace::emit(trace::Event::kReadBiasEnter);
    {
      ScopeExit release([&] {
        htm::memory_fence();  // reads must complete before the slot clears
        table.release(slot, tid);
        trace::emit(trace::Event::kReadBiasExit);
      });
      f();
      fault::checkpoint(fault::InjectPoint::kReadExit, this);
    }
    bias_reads_.fetch_add(1, std::memory_order_relaxed);
    return BiasRead::kDone;
  }

  /// Writer-side revocation. Three-state protocol: only the writer whose
  /// CAS moves kBiasOn → kBiasRevoking drains the table; every other
  /// writer arriving mid-revocation waits for the kBiasOff publish, so no
  /// writer can enter its section while a fast-path reader might still be
  /// live (the two-writer revocation race). Returns false iff the deadline
  /// expired first; a drain abandoned mid-way re-arms the bias
  /// (kBiasRevoking → kBiasOn, NOT kBiasOff): undrained fast-path readers
  /// may still be live, so publishing kBiasOff would let the next writer
  /// commit over them. The next writer simply revokes from scratch.
  bool revoke_bias(std::uint64_t deadline = locks::kNoDeadline) {
    for (;;) {
      const std::uint64_t b = bias_.load();
      if (b == kBiasOff) return true;
      if (b == kBiasOn && bias_.cas(kBiasOn, kBiasRevoking)) {
        htm::memory_fence();  // order the state change before the scan
        const std::uint64_t t0 = platform::now();
        // The drain writes each shard's cycles into that shard's scratch
        // word, striding over the interleaved {ema, last} telemetry.
        std::uint64_t* cycles =
            shard_revoke_ != nullptr ? &shard_revoke_[0].scratch : nullptr;
        if (!cfg_.bravo_table->wait_for_readers_of(
                lock_id_, deadline, cfg_.sabotage, cycles,
                sizeof(ShardRevoke) / sizeof(std::uint64_t))) {
          bias_.store(kBiasOn);  // re-arm: drain incomplete
          trace::emit(trace::Event::kBiasRevokeAbandoned);
          return false;
        }
        const std::uint64_t dur = platform::now() - t0;
        bias_.store(kBiasOff);  // publish: other writers may proceed
        trace::emit(trace::Event::kBiasRevoke,
                    static_cast<std::uint32_t>(dur));
        revocations_.fetch_add(1, std::memory_order_relaxed);
        revoke_cycles_.fetch_add(dur, std::memory_order_relaxed);
        const std::uint64_t prev =
            revoke_ema_hint_.load(std::memory_order_relaxed);
        revoke_ema_hint_.store(prev == 0 ? dur : prev - prev / 8 + dur / 8,
                               std::memory_order_relaxed);
        last_revoke_end_.store(platform::now(), std::memory_order_relaxed);
        if (cycles != nullptr) {
          // Attribute the drain per shard: a clean remote shard samples ~one
          // line read, a saturated one its full spin — so the cooldown each
          // socket's readers see tracks the cost of revoking *their* shard.
          const std::uint64_t end = platform::now();
          const int n = cfg_.bravo_table->shard_count();
          for (int s = 0; s < n; ++s) {
            ShardRevoke& sr = shard_revoke_[s];
            const std::uint64_t d = sr.scratch;
            const std::uint64_t p = sr.ema.load(std::memory_order_relaxed);
            sr.ema.store(p == 0 ? d : p - p / 8 + d / 8,
                         std::memory_order_relaxed);
            sr.last.store(end, std::memory_order_relaxed);
          }
        }
        return true;
      }
      if (locks::deadline_expired(deadline)) return false;
      // Deadline-keyed pause: expiry mid-drain-wait wakes exactly at the
      // deadline instead of at the next pause boundary past it.
      locks::deadline_pause(deadline);
    }
  }

  /// Reader-side adaptive re-bias: after bravo_rebias_reads consecutive
  /// reader-only acquisitions (writers reset the streak) and once the
  /// revocation-EMA cooldown has passed, re-arm the bias. The decision
  /// peeks raw state (uncharged heuristics); the flip itself is a charged
  /// strong-isolation CAS whose version bump aborts any writer whose
  /// commit scan already subscribed the bias word. With a socket-sharded
  /// table the cooldown consults the *reader's own shard's* revocation EMA
  /// (recorded per shard by revoke_bias): a saturated remote socket whose
  /// drain runs long throttles only its own readers, not this one.
  void maybe_rebias(int tid) {
    const std::uint64_t streak =
        reader_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak < static_cast<std::uint64_t>(cfg_.bravo_rebias_reads)) return;
    if (bias_.raw_load() != kBiasOff) return;
    std::uint64_t last, ema;
    if (shard_revoke_ != nullptr) {
      const int sh = cfg_.bravo_table->shard_of_tid(tid);
      last = shard_revoke_[sh].last.load(std::memory_order_relaxed);
      ema = shard_revoke_[sh].ema.load(std::memory_order_relaxed);
    } else {
      last = last_revoke_end_.load(std::memory_order_relaxed);
      ema = revoke_ema_hint_.load(std::memory_order_relaxed);
    }
    if (last != 0 && ema != 0) {
      const auto cool = static_cast<std::uint64_t>(
          cfg_.bravo_rebias_cooldown * static_cast<double>(ema));
      if (platform::now() - last < cool) return;
    }
    if (bias_.cas(kBiasOff, kBiasOn)) {
      reader_streak_.store(0, std::memory_order_relaxed);
      rebias_count_.fetch_add(1, std::memory_order_relaxed);
      trace::emit(trace::Event::kBiasRebias);
    }
  }

  /// §3.4: optimistic one-shot HTM execution of a reader.
  template <class F>
  bool try_reader_htm(F&& f) {
    htm::Engine* engine = htm::Engine::current();
    if (engine == nullptr) return false;
    int attempts = 0;
    for (;;) {
      if (gl_.is_locked()) return false;  // no point speculating
      ++attempts;
      const htm::TxStatus status =
          engine->try_transaction([&]() -> std::optional<htm::Abort> {
            if (gl_.is_locked()) return htm::Abort{kCodeLockBusy};
            f();
            return std::nullopt;
          });
      if (status.committed()) return true;
      plane().modes_.record_abort(status, kCodeLockBusy, kCodeReader);
      if (status.cause == htm::AbortCause::kCapacity ||
          attempts >= Config::kReaderHtmRetries) {
        return false;
      }
    }
  }

  /// Advertises the reader in the configured tracking structure.
  void advertise_reader(Plane& p, int tid) {
    if (cfg_.use_snzi) {
      p.snzi_->arrive(tid);
    } else {
      // Strong isolation: the store aborts any writer whose commit scan
      // already subscribed this flag line.
      p.state_[static_cast<std::size_t>(tid)].store(kReader);
    }
    htm::memory_fence();  // flag must be visible before the section's reads
  }

  void unadvertise_reader(Plane& p, int tid) {
    if (cfg_.use_snzi) {
      p.snzi_->depart(tid);
    } else {
      p.state_[static_cast<std::size_t>(tid)].store(kIdle);
    }
  }

  /// Commit-time reader check, executed inside the writer's transaction:
  /// the reader abort when a reader is active, nullopt otherwise. The
  /// wrapper samples the scan's virtual-cycle cost only for scans that
  /// found no reader.
  std::optional<htm::Abort> check_for_readers(htm::Engine* engine, int tid) {
    const std::uint64_t scan_start = platform::now();
    if (readers_present(engine, tid)) return htm::Abort{kCodeReader};
    if (Plane* p = plane_peek()) {
      auto& s = p->scan_stats_[static_cast<std::size_t>(tid)].value;
      s.cycles += platform::now() - scan_start;
      ++s.scans;
    }
    return std::nullopt;
  }

  bool readers_present(htm::Engine* engine, int tid) {
    if (cfg_.bravo_bias) {
      // Transactional reads — both are *subscriptions*: a re-bias (reader
      // about to take the fast path) or a plane install (first slow-path
      // reader arriving) after this point bumps the word's line version
      // and aborts this writer at validation, so neither kind of reader
      // can hide (DESIGN.md §12).
      if (bias_.load() != kBiasOff) return true;
      if (plane_published_.load() == 0) return false;  // no slow reader ever
    }
    Plane& p = plane();
    if (cfg_.use_snzi) return p.snzi_->query();
    if (cfg_.sabotage == Sabotage::kScanSkipsTid0) {
      // The broken twin's scan: word by word, blind to reader tid 0.
      for (int t = 1; t < cfg_.max_threads; ++t) {
        if (t != tid && state_raw(p, t) == kReader) return true;
      }
      return false;
    }
    const auto n = static_cast<std::size_t>(cfg_.max_threads);
    // Line-granular scan: state_ is 64-byte aligned, so elements
    // [base, base+8) share one cache line; one OR-summary read covers them
    // all, and a writer's commit check costs ceil(T/8) transactional line
    // reads instead of T word reads. kReader sets bit 0 and kWriter bit 1,
    // so the writer's own flag (and other writers') never trips the early
    // exit — no tid skip needed. A reader flag published concurrently bumps
    // the line version and aborts this transaction exactly as a per-word
    // scan would.
    for (std::size_t base = 0; base < n; base += kFlagsPerLine) {
      const std::size_t count = std::min(kFlagsPerLine, n - base);
      if ((htm::line_or(*engine, &p.state_[base], count) & kReader) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Alg. 2 Readers_Wait: wait for the active writer expected to end last,
  /// or join a reader that is already waiting for one. Returns false iff
  /// the deadline expired mid-wait — with waiting_for_ already reset, so
  /// readers that joined us are unaffected (they copied the *writer's* tid
  /// at join time and wait on that writer, not on us).
  bool readers_wait(Plane& p, int tid, std::uint64_t deadline) {
    int wait_for = -1;
    bool joined = false;
    std::uint64_t max_end = 0;
    for (int t = 0; t < cfg_.max_threads; ++t) {
      if (t == tid) continue;
      const std::size_t s = static_cast<std::size_t>(t);
      if (state_raw(p, t) == kWriter) {
        const std::uint64_t end = p.clock_w_[s]->load(std::memory_order_relaxed);
        if (wait_for == -1 || end > max_end) {
          max_end = end;
          wait_for = t;
        }
      } else if (cfg_.reader_join) {
        const int other = p.waiting_for_[s]->load(std::memory_order_acquire);
        if (other != -1) {
          wait_for = other;  // align our start with that reader's
          joined = true;
          break;
        }
      }
    }
    if (wait_for == -1) return true;
    trace::emit(joined ? trace::Event::kReaderJoin : trace::Event::kReaderWait,
                static_cast<std::uint32_t>(wait_for));
    const std::size_t me = static_cast<std::size_t>(tid);
    p.waiting_for_[me]->store(wait_for, std::memory_order_release);
    // Timed wait up to the writer's expected end (§3.4), then poll.
    const std::uint64_t until = locks::cap_wait(
        p.clock_w_[static_cast<std::size_t>(wait_for)]->load(
            std::memory_order_relaxed),
        deadline);
    if (until > platform::now()) platform::wait_until(until);
    while (state_raw(p, wait_for) == kWriter) {
      if (locks::deadline_expired(deadline)) {
        p.waiting_for_[me]->store(-1, std::memory_order_release);
        return false;
      }
      locks::deadline_pause(deadline);
    }
    p.waiting_for_[me]->store(-1, std::memory_order_release);
    return true;
  }

  /// Alg. 3 writer_wait: delay the retry so the write is expected to end δ
  /// cycles after the last active reader. Without a plane there is no
  /// slow-path reader to wait for (bias readers carry no end-time clock).
  /// The wait target is capped at the deadline; the caller's loop-top
  /// expiry check turns the truncated wait into a timeout.
  void writer_wait(int cs_id, int tid,
                   std::uint64_t deadline = locks::kNoDeadline) {
    Plane* pp = plane_peek();
    if (pp == nullptr) return;
    Plane& p = *pp;
    std::uint64_t last_reader_end = 0;
    for (int t = 0; t < cfg_.max_threads; ++t) {
      if (t == tid) continue;
      if (state_raw(p, t) == kReader) {
        const std::uint64_t end =
            p.clock_r_[static_cast<std::size_t>(t)]->load(
                std::memory_order_relaxed);
        if (end > last_reader_end) last_reader_end = end;
      }
    }
    if (last_reader_end == 0) return;
    const std::uint64_t dur = write_estimate(p, cs_id);
    const std::uint64_t lead =
        dur - static_cast<std::uint64_t>(static_cast<double>(dur) * cfg_.delta_fraction);
    const std::uint64_t target = locks::cap_wait(
        last_reader_end > lead ? last_reader_end - lead : last_reader_end,
        deadline);
    if (target > platform::now()) platform::wait_until(target);
  }

  /// Plain (uncharged beyond one load) view of another thread's state,
  /// used by the scheduling code that runs outside any transaction.
  std::uint64_t state_raw(Plane& p, int t) {
    return p.state_[static_cast<std::size_t>(t)].load();
  }

  /// Returns false iff the deadline expired before the SGL was acquired.
  /// Acquiring the SGL is the point of no return: every wait below it
  /// (bias drain, versioned waiter drain, reader drain) terminates because
  /// readers observing the busy SGL defer, so the write always completes
  /// once the lock is held — a timed writer never abandons a partially
  /// drained SGL acquisition.
  template <class F>
  bool fallback_write(int cs_id, int tid, std::uint64_t deadline, F&& f) {
    if (!gl_.lock_until(deadline)) return false;
    // Revoke *under* the SGL: a fast-path reader validates the SGL after
    // publishing its slot, so any reader that slipped past the lock is in
    // the table and this drain waits it out; later readers see the busy
    // SGL and defer (DESIGN.md §12).
    if (cfg_.bravo_bias) revoke_bias();
    if (cfg_.versioned_sgl) {
      if (Plane* pp = plane_peek()) {
        // §3.3: let readers that started waiting before this acquisition in.
        const std::uint64_t my_ver = gl_.version();
        for (int t = 0; t < cfg_.max_threads; ++t) {
          if (t == tid) continue;
          auto& wv = *pp->waiting_ver_[static_cast<std::size_t>(t)];
          for (;;) {
            const std::uint64_t v = wv.load(std::memory_order_acquire);
            if ((v & 1) == 0 || (v >> 1) >= my_ver) break;
            platform::pause();
          }
        }
      }
    }
    wait_for_readers(tid);
    const std::uint64_t start = platform::now();
    {
      ScopeExit release([&] { gl_.unlock(); });
      f();
      // Under the SGL every store of f published with its own version;
      // the last one is the section's commit timestamp. Pin it before the
      // trailing writer-flag clear publishes over it.
      if (htm::Engine* e = htm::Engine::current()) e->note_section_version();
    }
    if (tid == Config::kSamplerTid) {
      if (Plane* pp = plane_peek()) {
        pp->write_ema_[ema_slot(cs_id)].record(platform::now() - start);
      }
    }
    return true;
  }

  /// Alg. 1 wait_for_readers: executed while holding the SGL; readers that
  /// find the SGL busy defer, so this drains. No plane = no slow-path
  /// reader ever advertised = nothing to drain (a reader installing the
  /// plane after the peek sees the busy SGL and defers before running).
  void wait_for_readers(int tid) {
    Plane* pp = plane_peek();
    if (pp == nullptr) return;
    Plane& p = *pp;
    if (cfg_.use_snzi) {
      while (p.snzi_->query()) platform::pause();
      return;
    }
    for (int t = 0; t < cfg_.max_threads; ++t) {
      if (t == tid) continue;
      while (state_raw(p, t) == kReader) platform::pause();
    }
  }

  // The lock's only engine-visible words, kept together at the front: a
  // line-aligned lock holds all three on its first cache line. Conflicts
  // are line-granular, so which of them share a line is part of the lock's
  // observable behaviour.
  locks::SglLock gl_;
  htm::Shared<std::uint64_t> bias_;             ///< kBiasOff/On/Revoking
  htm::Shared<std::uint64_t> plane_published_;  ///< 1 once plane_ is set (bravo)
  Config cfg_;
  // --- BRAVO shell (the O(1)-word cold-lock state) ------------------------
  std::uint32_t lock_id_ = 0;
  std::atomic<Plane*> plane_{nullptr};
  std::atomic<std::uint64_t> reader_streak_{0};
  std::atomic<std::uint64_t> last_revoke_end_{0};
  std::atomic<std::uint64_t> revoke_ema_hint_{0};
  // Per-table-shard revocation telemetry (socket-sharded bravo tables
  // only, lazily sized from the table in the ctor; null otherwise so the
  // cold-lock shell pays exactly one extra word). scratch is the
  // revoker's drain scratch — exclusive because kBiasOn→kBiasRevoking
  // admits one drainer per lock at a time; the drain writes it in place
  // via wait_for_readers_of's stride.
  struct ShardRevoke {
    std::atomic<std::uint64_t> ema{0};   // shard's revocation-latency EMA
    std::atomic<std::uint64_t> last{0};  // end of shard's last revocation
    std::uint64_t scratch = 0;           // drain cycles, this revocation
  };
  static_assert(sizeof(ShardRevoke) == 3 * sizeof(std::uint64_t),
                "drain strides over ShardRevoke as raw uint64 words");
  std::unique_ptr<ShardRevoke[]> shard_revoke_;
  std::atomic<std::uint64_t> bias_reads_{0};
  std::atomic<std::uint64_t> snapshot_reads_{0};
  std::atomic<std::uint64_t> snapshot_fallbacks_{0};
  std::atomic<std::uint64_t> htm_reads_{0};
  std::atomic<std::uint64_t> htm_writes_{0};
  std::atomic<std::uint64_t> cold_reader_aborts_{0};
  std::atomic<std::uint64_t> revocations_{0};
  std::atomic<std::uint64_t> revoke_cycles_{0};
  std::atomic<std::uint64_t> rebias_count_{0};
  /// Latest sampled reader-duration EMA, published by the sampler thread for
  /// the stalled-reader watchdog (which runs on *writer* threads).
  std::atomic<std::uint64_t> read_estimate_hint_{0};
};

}  // namespace sprwl::core
