// Best-effort HTM emulation: public types.
//
// Commercial HTM (Intel RTM, POWER8) gives programs exactly four things the
// SpRWL algorithm consumes:
//
//   1. transactions whose stores become visible atomically at commit;
//   2. eager ("strong isolation") conflict detection against both
//      transactional and plain accesses;
//   3. a *best-effort* contract: transactions may abort for capacity,
//      conflicts, interrupts (spurious), or on request, reporting a cause
//      and an 8-bit user code (Intel's _xabort(imm8));
//   4. bounded read/write footprints determined by cache geometry.
//
// src/htm emulates those semantics in software (see engine.h for how), with
// capacity profiles mimicking the two machines of the paper's evaluation.
// HTM hardware is unavailable in this environment; DESIGN.md documents the
// substitution.
#pragma once

#include <cstdint>

#include "sim/topology.h"

namespace sprwl::htm {

/// Why a transaction attempt failed. Mirrors the cause bits of Intel RTM's
/// abort status word.
enum class AbortCause : std::uint8_t {
  kNone = 0,      ///< committed successfully
  kConflict,      ///< read-set invalidated by a concurrent commit/store
  kCapacity,      ///< read or write footprint exceeded the profile
  kExplicit,      ///< abort_tx(code) was called, or the body returned Abort
  kSpurious,      ///< modelled interrupt/context-switch abort
};

const char* to_string(AbortCause c) noexcept;

/// Result of one transaction attempt.
struct TxStatus {
  AbortCause cause = AbortCause::kNone;
  std::uint8_t code = 0;  ///< user code for kExplicit (like _xabort imm8)

  bool committed() const noexcept { return cause == AbortCause::kNone; }
};

/// An explicit abort a transaction body returns instead of calling
/// Engine::abort_tx (see Engine::try_transaction): the engine rolls it back
/// exactly like abort_tx(code) — cause kExplicit, the same counter and the
/// same tx_abort charge — without unwinding the stack.
struct Abort {
  std::uint8_t code = 0;  ///< user code, reported in TxStatus::code
};

/// Hardware capacity limits, in 64-byte cache lines.
///
/// Numbers model the *effective* random-access footprint after which the
/// paper's machines abort, not the raw cache sizes: Broadwell writes are
/// bounded by the ~22KB L1 write buffer (352 lines); reads are tracked
/// beyond L1 (the paper cites 4MB for sequential access) but random-access
/// read sets evict and abort with high probability once they spill L1d, so
/// the effective profile uses 512 lines (32KB). POWER8 tracks both reads
/// and writes in an 8KB structure (128 lines).
struct CapacityProfile {
  const char* name;
  std::uint32_t read_lines;
  std::uint32_t write_lines;
};

inline constexpr CapacityProfile kBroadwell{"broadwell", 512, 352};
inline constexpr CapacityProfile kPower8{"power8", 128, 128};
/// For tests that want no capacity effects.
inline constexpr CapacityProfile kUnbounded{"unbounded", ~0u, ~0u};

/// How commits and strong-isolation stores serialize against each other.
enum class CommitMode : std::uint8_t {
  /// TL2-style per-line versioned locks: a commit CASes the lock bit into
  /// each written line individually (sorted order, no global lock), so
  /// disjoint commits and nontx stores to different lines proceed fully in
  /// parallel. The default.
  kPerLineLocks,
  /// The original centralized protocol: every commit and nontx store takes
  /// one global TATAS spin lock. Kept as the measurable baseline the
  /// micro-benchmarks compare against (with the lock's handoff contention
  /// charged to virtual time, like every other TATAS lock in the library).
  kGlobalLock,
};

struct EngineConfig {
  CapacityProfile capacity = kBroadwell;
  /// Probability, per transactional access, of a modelled interrupt abort.
  double spurious_abort_rate = 0.0;
  /// Dense thread ids must be < max_threads.
  int max_threads = 128;
  /// log2 of the version/lock table size; aliasing between distinct lines
  /// models cache-index conflicts (tiny tables are used in tests for that).
  int table_bits = 20;
  /// Seed for the per-descriptor spurious-abort RNG streams.
  std::uint64_t seed = 42;
  /// Commit-path serialization protocol (see CommitMode).
  CommitMode commit_mode = CommitMode::kPerLineLocks;
  /// Simulated machine topology. With >1 socket the engine tracks, per
  /// dense cache-line id, which thread touched the line last and charges
  /// CostModel::remote_socket / remote_cross on top of the base access cost
  /// when the line migrates (see engine.h, coherence_extra). The 1-socket
  /// default performs no tracking and no extra charges.
  sim::Topology topology{};
  /// Force owner tracking on even for a 1-socket topology — lets the bench
  /// prove tracking itself is virtual-time neutral (same-socket extras
  /// default to 0, so outputs stay bit-identical to tracking disabled).
  bool track_line_owners = false;
  /// MVCC snapshot support: number of prior versions retained per line in a
  /// bounded ring (0 = off, the default — no memory, no branches beyond one
  /// flag test, virtual-time traces identical to the seed). With K > 0
  /// every publish additionally records the overwritten word's old value
  /// keyed by the commit version, and snapshot readers
  /// (snapshot_begin/snapshot_read, see engine.h) serve reads at their
  /// pinned version from the ring instead of waiting out writers.
  std::uint32_t retain_versions = 0;
  /// Checker self-validation ONLY: snapshot reads skip the version-buffer
  /// lookup and return current memory even when the line is newer than the
  /// reader's pin — a too-new read the SI checker must catch.
  bool broken_snapshot_too_new = false;
};

/// Per-engine event counters (aggregated over all threads).
struct EngineStats {
  std::uint64_t commits_htm = 0;
  std::uint64_t commits_rot = 0;
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t aborts_explicit = 0;
  std::uint64_t aborts_spurious = 0;
  /// Contended per-line acquisitions during commits: the line was locked or
  /// the CAS lost a race, and the committer had to retry (kPerLineLocks).
  std::uint64_t commit_line_retries = 0;
  /// Contended line acquisitions by nontx_store/nontx_cas publishes.
  std::uint64_t nontx_line_retries = 0;
  /// nontx publishes that waited out a concurrent commit's publish window
  /// (the strong-isolation drain; see engine.h).
  std::uint64_t publish_drains = 0;
  /// Line ownership migrations observed while owner tracking is on (zero
  /// otherwise): transfers between cores of one socket, across sockets, and
  /// across nodes (the RDMA-priced fabric hop; only with a multi-node
  /// sim::Topology). The NUMA and distributed benchmarks read these to
  /// attribute virtual-time differences to coherence traffic rather than
  /// algorithmic work.
  std::uint64_t socket_transfers = 0;
  std::uint64_t cross_transfers = 0;
  std::uint64_t node_transfers = 0;
  /// MVCC (EngineConfig::retain_versions > 0, zero otherwise):
  /// snapshot reads served from the version ring (the line was newer than
  /// the reader's pin and the old value was found) vs. misses (the needed
  /// version was reclaimed or never recorded — the reader fell back to the
  /// stall path), and publishes that could not retain their overwritten
  /// value because the ring was full of entries still pinned by a live
  /// snapshot (the floor rose instead; affected snapshots miss).
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t version_overflows = 0;
  /// High-water mark of live (retained, reclaimable-window) entries across
  /// all version rings — the signal an adaptive ring-depth policy keys off:
  /// a ring that never fills past k can shrink to k, one pinned at
  /// retain_versions wants to grow. Zero when MVCC is off.
  std::uint64_t ring_occupancy_max = 0;
  /// Home-directory ownership model only (CostModel::ownership ==
  /// kHomeDirectory, zero otherwise): sharer-socket invalidations charged to
  /// writers (one per sharing socket evicted) — the coherence traffic the
  /// migratory model mis-attributes to readers.
  std::uint64_t invalidations = 0;

  std::uint64_t total_aborts() const noexcept {
    return aborts_conflict + aborts_capacity + aborts_explicit + aborts_spurious;
  }
};

}  // namespace sprwl::htm
