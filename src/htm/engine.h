// Software best-effort HTM engine.
//
// Design (word-granular redo log + line-granular conflict detection,
// TL2-style global version clock):
//
//  * Transactional stores are buffered in a per-thread redo log and become
//    visible only at commit — modelling HTM's atomic publish.
//  * Transactional loads record (cache line, observed version) and are
//    validated against a global version clock on every read ("extension"),
//    which guarantees *opacity*: live transactions only ever observe
//    consistent snapshots, exactly like hardware transactions, so emulated
//    transactions never crash on torn state.
//  * Commits are decentralized (TL2 writeback): a committing transaction
//    CAS-acquires a versioned lock on each written line *individually*, in
//    sorted line order (no deadlock), validates its read set against
//    unlocked line versions, applies the redo log and releases every line
//    with a fresh version from a fetch_add global version clock. Disjoint
//    commits never touch the same words and proceed fully in parallel —
//    there is no global commit lock on the default path (CommitMode::
//    kPerLineLocks; the old centralized protocol survives as kGlobalLock,
//    the baseline the micro-benchmarks quantify the win against). The
//    publish window charges g_costs.line_publish per line *while the lines
//    are held*, so in virtual time same-line publishes serialize and
//    disjoint ones overlap; the final write-back itself performs no advance
//    and is therefore a single virtual-time instant, like hardware.
//  * Plain ("uninstrumented") accesses go straight to memory. The one spot
//    where the SpRWL algorithm needs a plain STORE to be eagerly visible to
//    conflict detection (the reader's state flag — the paper's strong
//    isolation argument, Fig. 1) uses nontx_store()/nontx_cas(): a single
//    CAS cycle on the owning line's versioned lock (lock bit -> store ->
//    bumped version), so concurrent readers flagging different lines never
//    serialize with each other or with disjoint commits. A committing
//    writer that read the flag's line either validates after the bump (and
//    aborts) or validated before it — in which case the nontx publish
//    *drains* that writer's in-flight publish window (per-thread publishing
//    flags, single pass) before returning, so the flagging reader observes
//    every write of the commit it serialized after. This is precisely what
//    the cache-coherence protocol gives real HTM.
//  * Capacity profiles bound the number of *distinct lines* read/written;
//    exceeding them raises a capacity abort, as on the paper's machines.
//  * ROTs (rollback-only transactions, POWER8) skip read tracking and
//    validation: they buffer writes for atomic publish but detect no
//    conflicts. Callers (the RW-LE baseline) must serialize ROTs, which the
//    engine asserts.
//
// Explicit aborts on the lock protocols' hot paths are *returned*: a body
// that returns htm::Abort{code} is rolled back like abort_tx(code) without
// unwinding the stack, because a C++ throw costs microseconds of host time
// and lock protocols abort explicitly several times per contended section.
// Every other abort — conflicts, capacity, spurious, and abort_tx where an
// abort must cross frames — unwinds via AbortException (not derived from
// std::exception so that user-level `catch (const std::exception&)` cannot
// swallow a rollback). User exceptions thrown inside a transaction abort it
// cleanly and then propagate.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/costs.h"
#include "common/platform.h"
#include "common/rng.h"
#include "htm/htm.h"
#include "htm/line_set.h"

namespace sprwl::htm {

/// Internal control-flow token for transaction rollback. Deliberately not a
/// std::exception: transactional user code must let it pass through.
class AbortException {
 public:
  AbortException(AbortCause cause, std::uint8_t code) noexcept
      : cause_(cause), code_(code) {}
  AbortCause cause() const noexcept { return cause_; }
  std::uint8_t code() const noexcept { return code_; }

 private:
  AbortCause cause_;
  std::uint8_t code_;
};

/// Control-flow token for a failed snapshot read: the version the reader's
/// pin requires was reclaimed from (or never fit in) the bounded ring. Like
/// AbortException it is deliberately not a std::exception — snapshot user
/// code must let it unwind to the lock layer, which falls back to a normal
/// (registered or HTM-first) read.
class SnapshotMiss {};

namespace detail {
struct LineIdMap;  // the pooled storage behind Engine::line_of (engine.cpp)
}  // namespace detail

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const noexcept { return cfg_; }

  /// Runs `body` as one hardware-transaction attempt. Returns the outcome;
  /// never retries by itself (retry policies live in the lock algorithms).
  /// Re-entrant calls flatten into the enclosing transaction.
  ///
  /// `body` returns void, or std::optional<Abort>: a returned Abort rolls
  /// the attempt back exactly like abort_tx(code) — same TxStatus, counter
  /// and virtual-time charge — but without throwing, which is what makes an
  /// explicit abort cheap on the host. Inside a flattened nested attempt a
  /// returned Abort still unwinds to the outer begin.
  template <class F>
  TxStatus try_transaction(F&& body) {
    Descriptor& d = self();
    if (d.depth > 0) {  // flat nesting: aborts unwind to the outer begin
      ++d.depth;
      if (const std::optional<Abort> a = run_body(body))
        abort_internal(AbortCause::kExplicit, a->code);
      --d.depth;
      return {};
    }
    begin_attempt(d, /*rot=*/false);
    return attempt(d, body);
  }

  /// Runs `body` as a rollback-only transaction (POWER8 ROT): buffered
  /// writes, no read tracking/validation. At most one ROT may run at a
  /// time; the caller provides that serialization (RW-LE does). `body` may
  /// return an Abort, as for try_transaction.
  template <class F>
  TxStatus try_rot(F&& body) {
    Descriptor& d = self();
    assert(d.depth == 0 && "ROT cannot nest inside a transaction");
    begin_attempt(d, /*rot=*/true);
    return attempt(d, body);
  }

  /// Explicitly aborts the running transaction with a user code
  /// (Intel _xabort semantics). Must be called inside a transaction.
  /// Throws; a body that can return instead should return Abort{code}.
  [[noreturn]] void abort_tx(std::uint8_t code);

  /// True when the calling thread is inside a transaction on this engine.
  /// Inline: Shared<T> consults it on every plain access, which makes it
  /// one of the hottest functions of the whole bench pipeline.
  bool in_tx() noexcept {
    const int tid = platform::thread_id();
    if (tid < 0 || tid >= cfg_.max_threads) return false;
    return descriptors_[static_cast<std::size_t>(tid)]->depth > 0;
  }

  // --- word accessors (used by Shared<T>; see shared.h) -------------------
  std::uint64_t tx_read(const std::atomic<std::uint64_t>& cell);
  void tx_write(std::atomic<std::uint64_t>& cell, std::uint64_t v);

  /// Line-granular transactional summary read: returns the bitwise OR of
  /// `n` consecutive 8-byte cells that all live on the cache line owning
  /// `first` (n <= 8; the caller guarantees the cells share the line, e.g.
  /// an aligned_vector of Shared words). Costs one load charge and one
  /// read-set entry — the coherence-granularity equivalent of reading the
  /// whole line at once, which is what SpRWL's batched commit-time reader
  /// scan models. Conflict detection is identical to reading each word with
  /// tx_read: the line's version is subscribed, so any concurrent publish
  /// to it (e.g. a reader flag store) aborts this transaction.
  std::uint64_t tx_read_line_or(const std::atomic<std::uint64_t>* first,
                                std::size_t n);

  /// Strong-isolation plain store: a lock-free publish on the owning
  /// line's versioned lock. Invalidates the line in every live
  /// transaction's read set and drains commits already past validation, so
  /// the caller subsequently reads a post-commit view. Stores to different
  /// lines never serialize.
  void nontx_store(std::atomic<std::uint64_t>& cell, std::uint64_t v);
  /// Same, as a compare-and-swap. Returns false (no write) on mismatch;
  /// the failure path is a plain load — no version bump, no publish.
  bool nontx_cas(std::atomic<std::uint64_t>& cell, std::uint64_t expected,
                 std::uint64_t desired);

  // --- MVCC snapshots (EngineConfig::retain_versions) ---------------------
  /// True when the engine retains per-line version history. Single flag
  /// test: Shared<T> consults it (via in_snapshot) on every plain load.
  bool retains_versions() const noexcept { return retain_ != 0; }

  /// Pins the calling thread's snapshot at the current global version and
  /// returns it. Until snapshot_end(), Shared<T> loads on this thread are
  /// served at this version (snapshot_read): reads of lines newer than the
  /// pin come from the version ring, so the reader never waits for — and is
  /// never seen by — writers. Requires retain_versions > 0 and no open
  /// transaction.
  std::uint64_t snapshot_begin();

  /// Releases the pin (idempotent). Reclamation may then advance past it.
  void snapshot_end() noexcept;

  /// True when the calling thread holds a snapshot pin on this engine.
  /// Inline for the same reason as in_tx(): Shared<T> consults it on every
  /// plain access, and the retain_ test keeps the default path one branch.
  bool in_snapshot() noexcept {
    if (retain_ == 0) return false;
    const int tid = platform::thread_id();
    if (tid < 0 || tid >= cfg_.max_threads) return false;
    return descriptors_[static_cast<std::size_t>(tid)]->snap_pin.load(
               std::memory_order_relaxed) != kNoSnapshot;
  }

  /// The calling thread's current pin (kNoSnapshot when none).
  std::uint64_t snapshot_version() noexcept;

  /// Reads `cell` at the calling thread's pinned version: current memory
  /// when the owning line is unchanged since the pin, the retained old
  /// value when it is newer. Throws SnapshotMiss when the pinned version
  /// left the bounded ring. Never blocks on a writer whose commit version
  /// is newer than the pin.
  std::uint64_t snapshot_read(const std::atomic<std::uint64_t>& cell);

  /// Version drawn by the calling thread's most recent successful publish
  /// (commit or nontx store). The SI checker records it as the write's
  /// commit timestamp.
  std::uint64_t last_commit_version() noexcept;

  /// Marks the end of a lock section's data publishes: copies the calling
  /// thread's last_commit_version() into a slot that trailing publishes
  /// (writer-flag clears and other lock metadata going through Shared<T>)
  /// do not disturb. The lock layer calls this at its commit points; the
  /// SI checker reads the pinned value via last_section_version() so a
  /// writer's recorded commit timestamp is the version that actually
  /// stamped its data lines.
  void note_section_version() noexcept;

  /// The value pinned by the calling thread's last note_section_version().
  std::uint64_t last_section_version() noexcept;

  /// Current global version clock (free read; the checker and tests use it
  /// to reason about pins).
  std::uint64_t version_clock() const noexcept {
    return gvc_.load(std::memory_order_acquire);
  }

  static constexpr std::uint64_t kNoSnapshot = ~std::uint64_t{0};

  // --- topology-aware coherence (see sim/topology.h) ----------------------
  /// True when the engine tracks per-line last owners (>1 simulated socket,
  /// or EngineConfig::track_line_owners). Shared<T> consults it on the
  /// plain-access path, so it must be a single flag test.
  bool tracks_owners() const noexcept { return track_owners_; }

  /// Plain (uninstrumented) access hook, called by Shared<T> for loads that
  /// bypass the transactional machinery while owner tracking is on: charges
  /// the tiered coherence extra for the line owning `addr` and migrates its
  /// ownership to the calling thread. No-op without tracking.
  void plain_access(const void* addr) {
    if (!track_owners_) return;
    charge_coherence(line_of(reinterpret_cast<std::uintptr_t>(addr)));
  }

  // --- fault-injection surface (src/fault) --------------------------------
  /// Dynamically overrides EngineConfig::spurious_abort_rate; the fault
  /// injector uses this to ramp interrupt storms over a virtual-time window.
  void set_spurious_abort_rate(double rate) noexcept {
    spurious_rate_.store(rate, std::memory_order_relaxed);
  }
  double spurious_abort_rate() const noexcept {
    return spurious_rate_.load(std::memory_order_relaxed);
  }

  /// Per-thread capacity override (fault injection: SMT pressure / cache
  /// pollution jitter). Passing the config profile restores the default.
  void set_thread_capacity(int tid, std::uint32_t read_lines,
                           std::uint32_t write_lines);

  /// Models a syscall on the calling thread: hardware transactions cannot
  /// survive a ring transition, so an in-flight transaction aborts (like an
  /// interrupt, AbortCause::kSpurious); outside a transaction only the time
  /// cost is charged. This is what forces HTM-first readers onto their
  /// uninstrumented fallback.
  void syscall(std::uint64_t cost_cycles);

  EngineStats stats() const;
  void reset_stats();

  /// The "installed HTM", consulted by Shared<T>. Tests and harnesses
  /// install an engine with EngineScope. Resolution is thread-local first,
  /// then the process-wide fallback:
  ///  * a scope installed on the current OS thread (each parallel bench
  ///    worker runs its own Simulator + Engine; fibers share the worker's
  ///    thread, so they see their point's engine with no cross-worker
  ///    races on the global word);
  ///  * otherwise the process-wide engine (the real-thread stress tests
  ///    install one scope on the main thread and spawn std::threads that
  ///    must all see it).
  static Engine* current() noexcept {
    if (t_current != nullptr) return t_current;
    return g_current.load(std::memory_order_acquire);
  }
  /// current() for entry points that cannot run without an engine (the
  /// HTM write paths): throws std::logic_error naming `who` instead of
  /// handing back a null pointer to dereference.
  static Engine& require(const char* who) {
    Engine* e = current();
    if (e == nullptr) {
      throw std::logic_error(std::string(who) +
                             ": no htm::Engine installed; wrap the run in "
                             "an htm::EngineScope");
    }
    return *e;
  }
  static void set_current(Engine* e) noexcept {
    t_current = e;
    g_current.store(e, std::memory_order_release);
  }

 private:
  struct ReadEntry {
    std::uint32_t line;
    std::uint64_t version;
  };
  struct WriteEntry {
    std::atomic<std::uint64_t>* cell;
    std::uint64_t value;
  };

  static constexpr std::uint32_t kNoRead = ~std::uint32_t{0};

  struct Descriptor {
    int depth = 0;
    bool is_rot = false;
    std::uint64_t rv = 0;  // read-validity timestamp (TL2 "read version")
    std::vector<ReadEntry> reads;
    EpochMap<std::uint32_t> read_lines;   // line -> index into reads
    // Last line tx_read resolved: line number (addr >> 6) -> dense id,
    // valid across attempts, plus its index into reads in this attempt
    // (kNoRead until the line is in the read set; begin_attempt resets it).
    std::uint64_t memo_line = ~std::uint64_t{0};
    std::uint32_t memo_id = 0;
    std::uint32_t memo_read = kNoRead;
    std::vector<WriteEntry> writes;
    EpochMap<std::uint64_t> write_words;  // cell address -> index into writes
    EpochMap<std::uint32_t> write_lines;  // distinct written lines (capacity)
    std::vector<std::uint32_t> write_line_list;
    // Pre-lock version of write_line_list[i] (sorted), recorded while the
    // commit holds the line; doubles as the rollback image of the lock word.
    std::vector<std::uint64_t> locked_versions;
    Rng rng;
    // Per-thread capacity limits, in distinct lines; normally the config
    // profile, overridden by fault injection (capacity jitter).
    std::atomic<std::uint32_t> cap_read_lines{~0u};
    std::atomic<std::uint32_t> cap_write_lines{~0u};
    // Per-thread event counters (aggregated by Engine::stats()).
    std::uint64_t commits_htm = 0, commits_rot = 0;
    std::uint64_t ab_conflict = 0, ab_capacity = 0, ab_explicit = 0, ab_spurious = 0;
    std::uint64_t line_retries = 0;  // contended commit line acquisitions
    // MVCC: the thread's live snapshot pin (kNoSnapshot = none). Atomic
    // because reclamation on other threads reads it to compute the oldest
    // live snapshot. Liveness only — safety is the per-line floor, which a
    // snapshot reader re-validates inside every ring lookup.
    std::atomic<std::uint64_t> snap_pin{~std::uint64_t{0}};
    std::uint64_t snap_hits = 0, snap_misses = 0;
    std::uint64_t last_wv = 0;  // version of the latest successful publish
    // Snapshot of last_wv taken by note_section_version(): the version of
    // the last publish that belonged to a lock *section body*, before any
    // trailing lock-metadata publish could overwrite last_wv.
    std::uint64_t last_section_wv = 0;
    // True from just before read-set validation until the commit's writes
    // are fully published. On its own cache line: every nontx publish may
    // scan it (the strong-isolation drain) while the owner flips it.
    alignas(64) std::atomic<bool> publishing{false};
  };

  static constexpr std::uint64_t kLockedBit = 1ULL << 63;

  // --- MVCC version buffer (retain_versions > 0 only) ----------------------
  // Per dense line id: a K-slot ring of (word address, old value,
  // replaced_at) entries appended — exclusively while the line's versioned
  // lock is held, so appends are serialized per line — whenever a publish
  // overwrites a word. `replaced_at` is the publishing commit's wv: the
  // recorded value was current for every version < wv. Per-line appends are
  // monotone in wv (the line lock orders the fetch_adds), so a lookup scans
  // oldest→newest for the first entry of its word with replaced_at > pin.
  //
  // Concurrency (the TSan MvccRealThread leg): `seq` is a seqlock —
  // odd while an append is in flight; readers snapshot seq, scan, and
  // retry if it moved. `floor` is the oldest version the ring still fully
  // covers: reclaiming (or failing to retain) an entry raises it, and a
  // lookup whose pin is below the floor (re-validated inside the seqlock
  // window) misses instead of returning a hole-punched history.
  struct VersionSlot {
    std::atomic<std::uint64_t> addr{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> replaced_at{0};
  };
  struct alignas(64) LineHist {
    std::atomic<std::uint64_t> seq{0};    // seqlock generation; odd = mutating
    std::atomic<std::uint64_t> count{0};  // entries ever appended (ring pos)
    std::atomic<std::uint64_t> floor{0};  // history complete for pins >= floor
  };

  /// Records `old_value` (the pre-publish content of `cell`) as the line's
  /// state before version `wv`. Caller holds the line's versioned lock.
  /// `min_pin` caches min_live_pin() across one commit's appends
  /// (kNoSnapshot - 1 = not yet computed).
  void history_append(std::uint32_t line, const std::atomic<std::uint64_t>* cell,
                      std::uint64_t old_value, std::uint64_t wv,
                      std::uint64_t& min_pin);

  /// Oldest live snapshot pin across all threads (kNoSnapshot when none).
  std::uint64_t min_live_pin() const noexcept;

  /// Records `wv` as the calling thread's last publish version (no-op for
  /// threads without a dense id). The SI checker reads it back via
  /// last_commit_version().
  void note_publish(std::uint64_t wv) noexcept;

  // Inline for the same reason as in_tx(): every tx_read/tx_write starts
  // by resolving the calling thread's descriptor.
  Descriptor& self() {
    const int tid = platform::thread_id();
    if (tid < 0 || tid >= cfg_.max_threads) {
      throw std::logic_error(
          "htm::Engine: calling thread has no dense id (use ThreadIdScope "
          "or run under sim::Simulator), or id >= EngineConfig::max_threads");
    }
    return *descriptors_[static_cast<std::size_t>(tid)];
  }

  /// Cache-line → version-table index. Indices are dense ids handed out in
  /// *first-touch order* (lock-free open-addressing map keyed by the line
  /// address), not an address hash: heap addresses vary run to run (ASLR,
  /// allocator history), and hashing them made version-table aliasing — and
  /// therefore abort counts — address-dependent. First-touch order is part
  /// of the deterministic schedule, so with dense ids two runs of the same
  /// seeded workload behave identically, across processes and regardless of
  /// which bench worker thread hosts the point. Ids past the table size
  /// wrap (deterministic aliasing — tests use tiny tables to force it); if
  /// the id map itself fills up, later lines deterministically-insertion-
  /// ordered no more and fall back to the address hash (never hit by the
  /// shipped workloads; the map holds line_id_limit_ lines).
  ///
  /// The map's home slot hashes the 4 KiB page and keeps the line's offset
  /// within it, so the 64 lines of a page share one run of 64 slots and a
  /// data structure's lookups stay in a few hundred KiB of the map instead
  /// of one cache miss per line. The slot only decides where the map
  /// stores an id, never which id a line gets. tx_read memoizes the last
  /// line it resolved per thread (Descriptor::memo_line), so a read of the
  /// line just read skips this lookup altogether.
  std::uint32_t line_of(std::uintptr_t addr) noexcept {
    const std::uint64_t key = (addr >> 6) + 1;  // +1: 0 marks an empty slot
    std::size_t s = static_cast<std::size_t>((detail::mix64(addr >> 12) << 6) |
                                             ((addr >> 6) & 63)) &
                    id_mask_;
    for (;;) {
      const std::uint64_t k = line_keys_[s].load(std::memory_order_acquire);
      if (k == key) {
        std::uint32_t id;
        // The id is published right after the key CAS; the spin is only
        // observable from a racing real thread.
        while ((id = line_ids_[s].load(std::memory_order_acquire)) == 0) {
        }
        return (id - 1) & static_cast<std::uint32_t>(table_mask_);
      }
      if (k == 0) {
        if (next_line_id_.load(std::memory_order_relaxed) >= line_id_limit_) {
          return static_cast<std::uint32_t>(detail::mix64(addr >> 6) &
                                            table_mask_);
        }
        std::uint64_t expected = 0;
        if (line_keys_[s].compare_exchange_strong(expected, key,
                                                  std::memory_order_acq_rel)) {
          const std::uint32_t id =
              next_line_id_.fetch_add(1, std::memory_order_relaxed);
          slot_of_id_[id] = static_cast<std::uint32_t>(s);
          line_ids_[s].store(id + 1, std::memory_order_release);
          return id & static_cast<std::uint32_t>(table_mask_);
        }
        continue;  // lost the claim race: re-inspect the slot
      }
      s = (s + 1) & id_mask_;
    }
  }

  /// Returns the virtual-cycle coherence premium of accessing `line` and
  /// updates the per-line owner word. Only meaningful while track_owners_
  /// is set; bumps the transfer counters.
  ///
  /// Under CostModel::kMigratory (the default) the word is the last
  /// accessor's tid + 1 and `is_write` is ignored: any access from a
  /// different core migrates the line and pays its topology tier —
  /// including read-after-read. The common access pattern for lock metadata
  /// is read-then-modify, and a single-owner word keeps the tracking
  /// deterministic and O(1).
  ///
  /// Under CostModel::kHomeDirectory the word packs {touched, home socket,
  /// sharer-socket mask}: a read from a socket not yet in the mask pays one
  /// fetch-to-shared (remote_cross, remote_node across nodes) and joins it,
  /// subsequent reads from that socket are free; a write pays one
  /// invalidation per *other* sharing socket and collapses the mask to the
  /// writer. First touch sets the home socket and is free either way.
  std::uint64_t coherence_extra(std::uint32_t line, bool is_write) noexcept;

  /// Home-directory leg of coherence_extra (see above). `slot` is the
  /// line's owner word, `tid` the accessor's dense id.
  std::uint64_t home_directory_extra(std::atomic<std::uint32_t>& slot, int tid,
                                     bool is_write) noexcept;

  // Home-directory owner-word layout: bit 31 marks a touched line, bits
  // 24..30 hold the home socket, bits 0..23 the sharer-socket mask (sockets
  // past kSharerBits alias their bit modulo kSharerBits — conservative:
  // aliased sockets appear shared and over-charge, never under-charge).
  static constexpr std::uint32_t kHomeTouchedBit = 1u << 31;
  static constexpr int kSharerBits = 24;
  static constexpr std::uint32_t kSharerMask = (1u << kSharerBits) - 1;

  /// coherence_extra + the virtual-time charge. Callers on paths that
  /// already know the dense line id use this right at the access.
  void charge_coherence(std::uint32_t line, bool is_write = false) {
    const std::uint64_t extra = coherence_extra(line, is_write);
    if (extra > 0) platform::advance(extra);
  }

  /// Runs a body that returns void or std::optional<Abort>.
  template <class F>
  static std::optional<Abort> run_body(F& body) {
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      body();
      return std::nullopt;
    } else {
      return body();
    }
  }

  /// The attempt begun by begin_attempt: runs `body`, then commits or rolls
  /// back. A returned Abort is rolled back outside the try block, so the
  /// rollback's own charge unwinds exactly as it does from the catch
  /// handler of a thrown one.
  template <class F>
  TxStatus attempt(Descriptor& d, F& body) {
    std::optional<Abort> returned;
    try {
      returned = run_body(body);
      if (!returned) {
        commit_attempt(d);
        return {};
      }
    } catch (const AbortException& a) {
      rollback_attempt(d, a.cause());
      return {a.cause(), a.code()};
    } catch (...) {
      rollback_user(d);
      throw;
    }
    rollback_attempt(d, AbortCause::kExplicit);
    return {AbortCause::kExplicit, returned->code};
  }

  /// tx_read of a line not yet in the read set: capacity check, then a
  /// stable (version, value) pair recorded as a new read entry.
  std::uint64_t tx_read_new_line(Descriptor& d, std::uint32_t line,
                                 const std::atomic<std::uint64_t>& cell);
  void begin_attempt(Descriptor& d, bool rot);
  void commit_attempt(Descriptor& d);  // throws AbortException on conflict
  void commit_publish_perline(Descriptor& d);
  void commit_publish_global(Descriptor& d);
  void rollback_attempt(Descriptor& d, AbortCause cause);
  void rollback_user(Descriptor& d);
  void maybe_spurious(Descriptor& d);
  void extend(Descriptor& d);  // throws AbortException on failure
  [[noreturn]] void abort_internal(AbortCause cause, std::uint8_t code = 0);

  /// CAS-acquires the lock bit on `line`, spinning while it is held
  /// elsewhere. Returns the pre-lock version word. `retries` counts
  /// contended rounds (lock observed held, or CAS lost the race).
  std::uint64_t lock_line(std::uint32_t line, std::uint64_t& retries);

  /// Single pass over all threads' publishing flags: waits until every
  /// commit whose read-set validation may have preceded the caller's
  /// version bump has finished publishing (strong-isolation drain).
  void drain_publishers();

  /// The per-line publish cycle shared by nontx_store/nontx_cas: lock the
  /// line, charge the publish window, store `desired`, release with a
  /// bumped version, drain in-flight commits. When `expected` is non-null
  /// the cell is re-checked under the line lock (CAS semantics) and a
  /// mismatch releases the line untouched and returns false.
  bool nontx_publish(std::uint32_t line, std::atomic<std::uint64_t>& cell,
                     std::uint64_t desired, const std::uint64_t* expected);

  // kGlobalLock mode only: the original centralized TATAS commit lock.
  // Waiters spin through platform::pause(); the winner of a contended
  // handoff is charged contention_unit per spinner (the invalidation-storm
  // model every TATAS lock in the library uses), while holding the lock —
  // which is what makes the centralized protocol's serialization visible
  // in virtual time.
  void commit_lock();
  void commit_unlock() noexcept;

  EngineConfig cfg_;
  std::atomic<double> spurious_rate_;
  std::uint64_t table_mask_;
  std::vector<std::atomic<std::uint64_t>> table_;
  // First-touch line-id map (see line_of): open addressing, keys are
  // (addr >> 6) + 1, ids are dense id + 1 (0 = unpublished), and
  // slot_of_id_[i] is the slot dense id i claimed. The arrays belong to
  // id_map_, which comes from a per-thread pool and goes back to it
  // all-zero (engine.cpp).
  std::uint64_t id_mask_ = 0;
  std::uint32_t line_id_limit_ = 0;
  std::unique_ptr<detail::LineIdMap> id_map_;
  std::atomic<std::uint64_t>* line_keys_ = nullptr;
  std::atomic<std::uint32_t>* line_ids_ = nullptr;
  std::uint32_t* slot_of_id_ = nullptr;
  std::atomic<std::uint32_t> next_line_id_{0};
  std::atomic<std::uint64_t> gvc_{0};
  std::atomic<bool> commit_locked_{false};
  std::atomic<int> commit_waiters_{0};
  std::atomic<int> active_rots_{0};
  // Number of threads currently inside a publish window; lets the drain
  // skip the flag scan entirely on the (overwhelmingly common) idle path.
  std::atomic<std::uint64_t> publish_count_{0};
  // Aggregate counters for paths that may run on threads without a dense
  // id (nontx publishes); bumped only on contended/waiting rounds.
  std::atomic<std::uint64_t> nontx_retries_{0};
  std::atomic<std::uint64_t> drains_{0};
  // Owner tracking (resolved from cfg at construction). owners_ maps the
  // dense line id to last-owner tid + 1 (0 = untouched) and is allocated
  // only when tracking is on — the default engine pays neither the memory
  // nor any branch beyond the track_owners_ test.
  bool track_owners_ = false;
  std::vector<std::atomic<std::uint32_t>> owners_;
  // MVCC state, allocated only when retain_versions > 0 (the default engine
  // pays neither the memory nor any branch beyond the retain_ test).
  std::uint32_t retain_ = 0;
  std::vector<LineHist> line_hist_;
  std::vector<VersionSlot> version_ring_;  // (1 << table_bits) * retain_
  std::atomic<std::uint64_t> overflows_{0};
  // High-water of live retained entries across all rings since the last
  // reset_stats() (EngineStats::ring_occupancy_max).
  std::atomic<std::uint64_t> ring_occ_max_{0};
  // Home-directory model only: sharer-socket invalidations charged to
  // writers (EngineStats::invalidations).
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> socket_transfers_{0};
  std::atomic<std::uint64_t> cross_transfers_{0};
  std::atomic<std::uint64_t> node_transfers_{0};
  std::vector<std::unique_ptr<Descriptor>> descriptors_;

  static std::atomic<Engine*> g_current;
  static thread_local Engine* t_current;

  friend class EngineScope;
};

/// RAII installer for the calling thread's engine (and the process-wide
/// fallback — see Engine::current()). Both slots are saved and restored, so
/// scopes nest; the global slot is restored with a compare-exchange so a
/// scope on one worker thread never stomps an engine another worker
/// installed concurrently.
class EngineScope {
 public:
  explicit EngineScope(Engine& e) noexcept
      : installed_(&e),
        prev_tl_(Engine::t_current),
        prev_g_(Engine::g_current.load(std::memory_order_acquire)) {
    Engine::t_current = &e;
    Engine::g_current.store(&e, std::memory_order_release);
  }
  ~EngineScope() {
    Engine::t_current = prev_tl_;
    Engine* expected = installed_;
    Engine::g_current.compare_exchange_strong(expected, prev_g_,
                                              std::memory_order_acq_rel);
  }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;

 private:
  Engine* installed_;
  Engine* prev_tl_;
  Engine* prev_g_;
};

}  // namespace sprwl::htm
