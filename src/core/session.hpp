// Session: the stateful aggregation endpoint over a (stateless,
// shareable) protocol instance.
//
// A protocol object — flat SssProtocol or HierarchicalProtocol — is a
// pure description: topology, participant lists, NTX tuning. Running a
// round, however, has state that must not be pushed onto every caller:
// the round/nonce counter feeding the AES-CTR nonces, the key
// epoch that must rotate before the 16-bit wire-round window wraps, and
// the warm buffers that make back-to-back rounds allocation-free. A
// Session owns all of it:
//
//   * monotone round ids — each run_round consumes the next id; a
//     (key epoch, round) pair is never issued twice (debug-asserted),
//     so AES-CTR keystreams never repeat;
//   * key rotation — epoch e = round / rounds_per_epoch; epoch 0 uses
//     the protocol's construction keystore (historic rounds stay
//     byte-identical), later epochs derive fresh keystores from
//     rotation_seed;
//   * warm state — one workspace reused across rounds: after the
//     warm-up round the honest static flat path performs zero heap
//     allocations per round.
//
// One Session serves one logical stream of rounds and is NOT
// thread-safe; concurrent trials use one Session each (the protocol
// underneath is shared freely).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/hierarchical.hpp"
#include "core/protocol.hpp"
#include "crypto/keystore.hpp"
#include "field/fp61.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {

struct SessionConfig {
  /// First round id this session issues (continuing a numbered stream).
  std::uint32_t first_round = 0;
  /// Rounds per AES key epoch. Clamped at construction so every wire
  /// round within an epoch is unique: to 2^16 for flat sessions, and to
  /// 2^16 / max_round_batches() for hierarchical ones (each session
  /// round spends `batches` inner wire rounds per group).
  std::uint32_t rounds_per_epoch = 1u << 16;
  /// Seeds the rotated keystores of epochs >= 1. A deployment artifact
  /// like the protocol's key seed, not per-trial randomness.
  std::uint64_t rotation_seed = 0x5E5510AAull;
};

/// What one session round produced, independent of protocol shape. The
/// shape-specific result stays reachable through exactly one of the two
/// pointers (valid until the next run_round on this session).
struct RoundReport {
  std::uint32_t round = 0;      ///< session round id
  std::uint32_t key_epoch = 0;  ///< AES epoch the round ran under
  /// The round produced a correct aggregate somewhere: flat — at least
  /// one live node reconstructed correctly; hierarchical — the global
  /// root's aggregate was correct.
  bool ok = false;
  double success_ratio = 0.0;
  /// Work time of the round (the protocol's total_duration_us).
  SimTime duration_us = 0;
  /// Absolute trial-clock bounds: start is the submit time, end is when
  /// the result (flood) finished — under a pipelined campaign end can
  /// trail the work time when the flood lane was still draining.
  SimTime start_us = 0;
  SimTime end_us = 0;
  const AggregationResult* flat = nullptr;
  const HierarchicalResult* hier = nullptr;
};

class Session {
 public:
  /// Flat session. The protocol must outlive the session.
  explicit Session(const SssProtocol& protocol, SessionConfig config = {});
  /// Hierarchical session. The protocol must outlive the session.
  explicit Session(const HierarchicalProtocol& protocol,
                   SessionConfig config = {});

  /// Run the next round of the stream: issues the next round id,
  /// rotates the key epoch when due, and runs the protocol engine on
  /// the warm workspace. Secrets are per config().sources for flat
  /// sessions, per node for hierarchical ones. The dynamics environment
  /// (clock, channel model, churn) is read off `sim`.
  const RoundReport& run_round(const std::vector<field::Fp61>& secrets,
                               sim::Simulator& sim);

  /// Round id the next run_round will issue.
  std::uint32_t next_round() const { return next_round_; }
  std::uint32_t rounds_per_epoch() const { return config_.rounds_per_epoch; }
  /// Key epoch the next round will run under.
  std::uint32_t next_epoch() const {
    return next_round_ / config_.rounds_per_epoch;
  }
  bool hierarchical() const { return hier_ != nullptr; }
  /// Number of secrets run_round expects.
  std::size_t secret_count() const;

 private:
  friend class Campaign;

  /// The engine entry shared with Campaign: run one round under a
  /// caller-built environment (the campaign sets the submit time and,
  /// for pipelined hierarchical streams, the persistent timeline).
  const RoundReport& run_round_at(const std::vector<field::Fp61>& secrets,
                                  sim::Simulator& sim, RoundEnv env);

  /// The epoch's keystore for the flat protocol (null for epoch 0: the
  /// construction keystore). Rebuilt once per epoch, then cached.
  const crypto::KeyStore* flat_epoch_keys(std::uint32_t epoch);

  const SssProtocol* flat_ = nullptr;
  const HierarchicalProtocol* hier_ = nullptr;
  SessionConfig config_;
  std::uint32_t next_round_ = 0;
  /// Nonce-reuse guard: highest (epoch << 32 | round-in-epoch) issued.
  std::uint64_t last_issued_ = kNoneIssued;
  static constexpr std::uint64_t kNoneIssued = ~std::uint64_t{0};

  std::unique_ptr<RoundWorkspace> flat_ws_;
  std::unique_ptr<HierWorkspace> hier_ws_;
  std::unique_ptr<crypto::KeyStore> epoch_keys_;
  std::uint32_t cached_epoch_ = 0;
  RoundReport report_;
};

}  // namespace mpciot::core
