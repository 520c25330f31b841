// SNZI — Scalable NonZero Indicator (Ellen, Lev, Luchangco, Moir, PODC'07).
//
// A SNZI object supports arrive()/depart() and a query() that answers
// "is the surplus (arrivals - departures) non-zero?". A tree of counters
// spreads contention: a node only touches its parent when its own count
// transitions between zero and non-zero, so arrive/depart cost is constant
// in the common case and logarithmic in the worst case, while query() reads
// a single word at the root.
//
// SpRWL (Section 3.4 of the paper) uses SNZI as an alternative reader
// tracking scheme: readers arrive/depart instead of setting their state
// flag, and writers check one root word inside their transaction instead of
// scanning an O(threads) state array — trading reader overhead for a
// smaller writer footprint (evaluated in Fig. 6).
//
// Implementation notes:
//  * Counts are stored in half-units (the algorithm's intermediate "1/2"
//    state) packed with a version number into one 64-bit word per node:
//    low 32 bits = 2*count, high 32 bits = version.
//  * The root keeps its indicator implicitly: query() == (root count != 0).
//    Packing the indicator into the counter word makes the original
//    paper's separate-indicator protocol unnecessary while preserving the
//    key property: query() is true whenever any completed arrival is
//    outstanding (transient half-states only cause conservative "true").
//  * Nodes are Shared<> cells: writers read the root transactionally, so a
//    reader's arrival invalidates a writer that already checked — the same
//    strong-isolation argument as for the state-flag scheme.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "common/costs.h"
#include "common/platform.h"
#include "htm/shared.h"

namespace sprwl::snzi {

class Snzi {
 public:
  struct Config {
    /// Number of tree levels; 1 means a single (root) counter.
    int levels = 3;
  };

  /// Deepest supported tree. 16 levels = 32768 leaves, enough for any
  /// max_threads the simulator models; auto-sizing callers (SpRWLock)
  /// derive their level count from max_threads and clamp to this.
  static constexpr int kMaxLevels = 16;

  Snzi() : Snzi(Config{}) {}

  explicit Snzi(Config cfg) {
    assert(cfg.levels >= 1 && cfg.levels <= kMaxLevels);
    std::size_t count = 0;
    for (int l = 0; l < cfg.levels; ++l) count += std::size_t{1} << l;
    nodes_ = std::vector<CacheLinePadded<htm::Shared<std::uint64_t>>>(count);
    first_leaf_ = count - (std::size_t{1} << (cfg.levels - 1));
    leaves_ = count - first_leaf_;
  }

  /// Register one arrival for `slot` (typically a thread id; mapped onto a
  /// leaf). Multiple arrivals per slot are allowed and counted.
  void arrive(int slot) {
    ContentionScope c(*this);
    arrive_at(leaf_of(slot));
  }

  /// Match one prior arrive() from the same slot.
  void depart(int slot) {
    ContentionScope c(*this);
    depart_at(leaf_of(slot));
  }

  /// True iff the surplus may be non-zero. Exact when no arrival is
  /// mid-flight; conservatively true during one. Transaction-aware: called
  /// inside a writer transaction this subscribes to the root word.
  bool query() const { return count_of(nodes_[0]->load()) != 0; }

  /// Exact surplus at the root in completed arrivals (root never holds a
  /// half-state for long; used by tests). Not transaction-aware.
  std::uint64_t root_count_raw() const noexcept {
    return count_of(nodes_[0]->raw_load());
  }

  std::size_t leaf_count() const noexcept { return leaves_; }

  /// Heap bytes held by the tree (per-lock footprint accounting).
  std::size_t footprint_bytes() const noexcept {
    return sizeof(*this) +
           nodes_.capacity() * sizeof(CacheLinePadded<htm::Shared<std::uint64_t>>);
  }

 private:
  /// Update-side contention model: concurrent arrive/depart operations
  /// RMW the same few tree lines, so each pays proportionally to how many
  /// others are mid-update (cache-line handoff queuing, as in SpinMutex).
  /// With long readers the tree is quiet and the charge vanishes — the
  /// workload dependence Fig. 6 of the paper quantifies.
  class ContentionScope {
   public:
    explicit ContentionScope(const Snzi& s) : snzi_(s) {
      const int busy = snzi_.in_update_.fetch_add(1, std::memory_order_relaxed);
      if (busy > 0) {
        platform::advance(static_cast<std::uint64_t>(busy) * g_costs.contention_unit);
      }
    }
    ~ContentionScope() {
      snzi_.in_update_.fetch_sub(1, std::memory_order_relaxed);
    }
    ContentionScope(const ContentionScope&) = delete;
    ContentionScope& operator=(const ContentionScope&) = delete;

   private:
    const Snzi& snzi_;
  };

  // word layout: [ version : 32 | 2*count : 32 ]
  static std::uint64_t count_of(std::uint64_t w) noexcept { return w & 0xffffffffu; }
  static std::uint64_t version_of(std::uint64_t w) noexcept { return w >> 32; }
  static std::uint64_t make(std::uint64_t c2, std::uint64_t v) noexcept {
    return (v << 32) | (c2 & 0xffffffffu);
  }

  std::size_t leaf_of(int slot) const noexcept {
    return first_leaf_ + static_cast<std::size_t>(slot) % leaves_;
  }
  static bool is_root(std::size_t i) noexcept { return i == 0; }
  static std::size_t parent_of(std::size_t i) noexcept { return (i - 1) / 2; }

  void arrive_at(std::size_t i) {
    auto& x = *nodes_[i];
    bool succ = false;
    int undo = 0;
    while (!succ) {
      const std::uint64_t w = x.load();
      const std::uint64_t c2 = count_of(w);
      const std::uint64_t v = version_of(w);
      if (c2 >= 2) {  // count >= 1: plain increment
        if (x.cas(w, make(c2 + 2, v))) succ = true;
      } else if (c2 == 0) {  // 0 -> 1/2: start a fresh epoch of this node
        if (x.cas(w, make(1, v + 1))) {
          succ = true;
          // fall through to complete the 1/2 -> 1 transition below
          finish_half(i, v + 1, undo);
        }
      } else {  // c2 == 1: someone (possibly us, above) is mid-transition
        finish_half(i, v, undo);
      }
    }
    while (undo-- > 0) depart_at(parent_of(i));
  }

  /// Helps the 1/2 -> 1 transition of node i at version v: arrives at the
  /// parent first, then tries to publish the full unit. A lost CAS means
  /// another helper won; the surplus parent arrival is undone by the
  /// caller (counted via `undo`).
  void finish_half(std::size_t i, std::uint64_t v, int& undo) {
    if (!is_root(i)) arrive_at(parent_of(i));
    if (!nodes_[i]->cas(make(1, v), make(2, v))) {
      if (!is_root(i)) ++undo;
    }
  }

  void depart_at(std::size_t i) {
    auto& x = *nodes_[i];
    for (;;) {
      const std::uint64_t w = x.load();
      const std::uint64_t c2 = count_of(w);
      const std::uint64_t v = version_of(w);
      assert(c2 >= 2 && "depart without matching arrive");
      if (x.cas(w, make(c2 - 2, v))) {
        if (c2 == 2 && !is_root(i)) depart_at(parent_of(i));
        return;
      }
    }
  }

  std::vector<CacheLinePadded<htm::Shared<std::uint64_t>>> nodes_;
  std::size_t first_leaf_ = 0;
  std::size_t leaves_ = 0;
  mutable std::atomic<int> in_update_{0};
};

}  // namespace sprwl::snzi
