// Adversary models for the SSS aggregation round: the paper's
// semi-honest coalition plus the active (Byzantine) misbehaviours the
// robustness claims must survive.
//
// Passive side (the paper's privacy claim):
//  * `CollusionView` collects exactly what a coalition observes in a
//    round (the shares addressed to its members);
//  * `consistent_polynomial_for` exhibits, for ANY candidate secret, a
//    polynomial consistent with the coalition's view — the
//    information-theoretic argument that the view reveals nothing;
//  * `attempt_reconstruction` is the other direction: the best guess a
//    coalition can actually compute (Lagrange at x = 0 over its pooled
//    shares). At or above degree+1 shares this IS the secret; below, the
//    value is statistically independent of it (tests/core/privacy_test
//    sweeps the envelope and pins the exact boundary);
//  * `can_reconstruct` is the threshold predicate.
//
// Active side (threaded through SssProtocol/HierarchicalProtocol via
// ProtocolConfig::adversary):
//  * `AttackKind` enumerates the misbehaviours: garbage share values on
//    the air, equivocating dealers (different polynomials to different
//    holders), corrupted point-sums from attacker-held collectors, and
//    CT-slot jamming;
//  * `AdversaryEngine` derives every tamper value as a pure function of
//    (config seed, trial seed, round, attacker, target) — no shared RNG
//    streams, so trials stay deterministic and jobs-invariant, and a
//    config with kind == kNone changes nothing, byte for byte;
//  * `JammerChannel` decorates any net::ChannelModel with per-epoch
//    jammers that deafen every receiver in radio range — all four
//    transports inherit the attack through the channel-model seam.
//
// The eavesdropper case (no coalition membership, only the air
// interface) is handled by AES-128: an eavesdropper sees only
// ciphertext; tests/core/privacy_test exercises all adversaries.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/shamir.hpp"
#include "crypto/prng.hpp"
#include "field/polynomial.hpp"
#include "net/channel_model.hpp"

namespace mpciot::core {

/// The shares of one honest dealer observed by a coalition.
struct CollusionView {
  NodeId dealer = kInvalidNode;
  std::vector<Share> observed_shares;  // one per colluding holder
};

/// Threshold predicate: a coalition holding `shares_held` distinct
/// shares of a degree-`degree` polynomial can recover the secret iff
/// shares_held >= degree + 1.
constexpr bool can_reconstruct(std::size_t degree, std::size_t shares_held) {
  return shares_held >= degree + 1;
}

/// For a view with at most `degree` shares, return a degree-`degree`
/// polynomial that matches every observed share AND has constant term
/// `candidate_secret` — i.e. the view is consistent with any secret.
/// Returns nullopt when the view already determines the secret
/// (|shares| > degree) and the candidate doesn't match.
std::optional<field::Polynomial> consistent_polynomial_for(
    const CollusionView& view, std::size_t degree,
    field::Fp61 candidate_secret);

/// What a coalition recovers by pooling its shares and interpolating at
/// x = 0 — the strongest attack available to a share-collecting
/// coalition (any other estimator can be computed from the same view).
struct ReconstructionAttempt {
  /// Shares held >= degree + 1: `value` is provably the secret.
  bool meets_threshold = false;
  /// Lagrange interpolation at x = 0 over every observed share. Below
  /// the threshold this is a deterministic function of the view that the
  /// dealer's fresh polynomial randomness decouples from the secret.
  field::Fp61 value;
};

/// Precondition: observed holders distinct; at least one share.
ReconstructionAttempt attempt_reconstruction(const CollusionView& view,
                                             std::size_t degree);

/// Active misbehaviours an attacker-controlled node can commit.
enum class AttackKind : std::uint8_t {
  kNone = 0,
  /// Dealers broadcast garbage share values (commitments untouched):
  /// every delivered share is off the committed polynomial.
  kMalformedShares,
  /// Equivocation: dealers commit to their real polynomial but deal a
  /// second polynomial (same secret, same degree) to ~half their
  /// holders, so holder sums silently diverge unless verified.
  kInconsistentShares,
  /// Attacker-held collectors broadcast corrupted point-sums under an
  /// honest contributor bitmap.
  kPollutedSums,
  /// Attackers jam CT slots: per-epoch radio noise deafening every
  /// receiver in range (see JammerChannel).
  kJamSlots,
};

struct AdversaryConfig {
  AttackKind kind = AttackKind::kNone;
  /// Attacker-controlled nodes (round-topology ids).
  std::vector<NodeId> attackers;
  /// Domain-separates every tamper draw; independent of the simulation
  /// seed so the same attack replays across trials.
  std::uint64_t seed = 0;
  /// kJamSlots: probability a jammer actively jams a given epoch
  /// (independent per (jammer, epoch)).
  double jam_duty = 0.2;
  /// kJamSlots: jam-schedule epoch length when no inner channel model
  /// dictates one.
  SimTime jam_epoch_us = 10 * kMillisecond;

  bool active() const {
    return kind != AttackKind::kNone && !attackers.empty();
  }
};

/// Deterministic attack oracle built from an AdversaryConfig. All draws
/// are pure functions of their arguments (derive_seed-keyed), so the
/// engine is stateless, thread-safe and jobs-invariant.
class AdversaryEngine {
 public:
  AdversaryEngine() = default;
  AdversaryEngine(AdversaryConfig config, std::size_t node_count);

  bool active() const { return cfg_.active(); }
  AttackKind kind() const { return cfg_.kind; }
  const AdversaryConfig& config() const { return cfg_; }

  bool is_attacker(NodeId node) const {
    return node < is_attacker_.size() && is_attacker_[node] != 0;
  }

  /// Bit i set iff schedule[i] is an attacker. Precondition:
  /// schedule.size() <= 64 (the round's source/holder lists).
  std::uint64_t attacker_bits(const std::vector<NodeId>& schedule) const;

  /// kMalformedShares: the garbage value dealt to `holder` in place of
  /// `honest`. Guaranteed different from `honest`, so a verifying holder
  /// always detects it.
  field::Fp61 malformed_share(std::uint64_t trial_seed, std::uint16_t round,
                              NodeId attacker, NodeId holder,
                              field::Fp61 honest) const;

  /// kInconsistentShares: true for the holder-list positions the
  /// attacker equivocates to (~half, deterministic per attacker).
  bool equivocation_target(NodeId attacker, std::size_t holder_index) const;

  /// kInconsistentShares: the DRBG the attacker deals its second
  /// polynomial from — the one its equivocation targets get, with the
  /// same secret and degree but fresh coefficients, so only a
  /// commitment check can tell the shares apart.
  crypto::CtrDrbg equivocation_drbg(std::uint64_t trial_seed,
                                    std::uint16_t round,
                                    NodeId attacker) const;

  /// kPollutedSums: the nonzero offset an attacker-held collector folds
  /// into its broadcast point-sum.
  field::Fp61 sum_pollution(std::uint64_t trial_seed, std::uint16_t round,
                            NodeId attacker) const;

 private:
  AdversaryConfig cfg_;
  std::vector<char> is_attacker_;
};

/// Channel-model decorator: the inner model's link tables (or the
/// frozen static snapshot when inner is null) with per-epoch jammers
/// stamped on top. A jammer active in an epoch deafens every receiver
/// that can hear it at all — including itself, its radio being busy —
/// by clearing the receiver's audibility runs. Works on topologies of
/// any size.
/// Jam decisions are pure functions of (seed, epoch, jammer), so the
/// materialize() contract (same tables for the same (topo, epoch),
/// regardless of walk prefix) is preserved whenever the inner model
/// preserves it. Every transport consumes the channel-model seam, so
/// all four inherit the attack unchanged.
class JammerChannel final : public net::ChannelModel {
 public:
  /// `inner` may be null (jam the static topology) and must otherwise
  /// outlive this decorator. `jammers` are round-topology ids.
  JammerChannel(const net::ChannelModel* inner, std::vector<NodeId> jammers,
                std::uint64_t seed, double duty,
                SimTime epoch_us = 10 * kMillisecond);

  SimTime epoch_us() const override;
  void materialize(const net::Topology& topo, std::uint64_t epoch,
                   net::LinkEpochTables& tables) const override;

  /// The per-epoch jam decision (exposed for tests).
  bool jam_active(NodeId jammer, std::uint64_t epoch) const;

 private:
  const net::ChannelModel* inner_;
  std::vector<NodeId> jammers_;
  std::uint64_t seed_;
  double duty_;
  SimTime epoch_us_;
};

}  // namespace mpciot::core
