// Deliberately broken protocol steps for the checker's self-validation.
//
// Each "-broken" twin in check/registry.cpp sets exactly one of these on an
// otherwise healthy SpRWL config; the systematic checker must catch the
// resulting violation and minimize its schedule. Never set in production.
#pragma once

#include <cstdint>

namespace sprwl::core {

enum class Sabotage : std::uint8_t {
  kNone,
  /// The writer's commit-time reader scan runs word by word and skips
  /// reader tid 0, so a writer can commit over that live reader.
  kScanSkipsTid0,
  /// The bravo revocation drain ignores the global table's last slot, so a
  /// fast-path reader parked there survives revocation.
  kDrainSkipsLastSlot,
  /// The sharded bravo drain skips shard 0 — summary and slots — so a
  /// fast-path reader registered on socket 0 survives revocation.
  kDrainSkipsShard0,
  /// A timed fast-path reader that expires after occupying its bravo slot
  /// never releases it; every later drain then spins forever (livelock).
  kTimeoutLeaksSlot,
};

}  // namespace sprwl::core
