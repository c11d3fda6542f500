// Single-node phase logic of one share+sum round, extracted so it is
// callable outside the full-topology simulator: the rt layer's node
// daemon plays exactly one of these roles per phase over real sockets,
// while SssProtocol keeps simulating every node of a round at once.
//
// The three roles compose into the paper's round:
//   * SourceRole      — deal a Shamir polynomial over the secret and
//                       emit one AES-protected SharePacket per holder;
//   * HolderRole      — authenticate, check and accumulate incoming
//                       shares into a point-sum, emit one SumPacket;
//   * AggregatorRole  — collect point-sums, pick the best consistent
//                       contributor mask, Lagrange-reconstruct the
//                       aggregate at x = 0.
//
// SourceRole is the only dealing code in the library: SssProtocol's
// stage 0 and its equivocating attackers, the unicast baseline and the
// rt node all deal through it, each from its own DRBG stream, and every
// SharePacket a source sends comes from SourceRole::encode_share().
// HolderRole is the only accumulation code and carries the Feldman
// share check: SssProtocol's stage 1b, the unicast baseline and the rt
// node all sum shares through it, and every broadcast SumPacket comes
// from HolderRole::sum_packet(). AggregatorRole is the only
// mask-selection and reconstruction code: SssProtocol's completion
// oracle and per-node reconstruction, the unicast baseline and the rt
// coordinator all run it. The simulator and the socket runtime share
// all three rules by construction.
//
// Reconstruction over any degree+1 sums with identical contributor
// masks yields the same field element (exact arithmetic over points of
// one polynomial), so the aggregate value is independent of message
// timing — the property the distributed runtime's determinism tests
// pin against the simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/shamir.hpp"
#include "core/wire.hpp"
#include "crypto/feldman.hpp"
#include "crypto/keystore.hpp"
#include "crypto/prng.hpp"
#include "field/fp61.hpp"
#include "field/lagrange.hpp"

namespace mpciot::core::roles {

/// One group's round assignment, as a node daemon receives it. Sources
/// and holders are global node ids in schedule order; bit i of every
/// contributor mask refers to sources[i].
struct RoundSpec {
  std::vector<NodeId> sources;
  std::vector<NodeId> holders;
  std::size_t degree = 1;
  std::uint16_t round = 0;
};

/// Check the spec invariants (non-empty lists, <= 64 sources, unique
/// ids, 1 <= degree, degree + 1 <= holders). Throws ContractViolation.
void validate(const RoundSpec& spec);

/// Index of `node` in `list`, or nullopt.
std::optional<std::size_t> index_of(const std::vector<NodeId>& list,
                                    NodeId node);

/// Dealer side: shares a secret out to the spec's holders.
class SourceRole {
 public:
  /// Precondition: `self` is one of spec.sources. Holds no deal until
  /// deal() runs.
  SourceRole(const RoundSpec& spec, NodeId self);

  /// Deal a fresh degree-`spec.degree` polynomial with constant term
  /// `secret`, coefficients drawn from `drbg`, and evaluate every
  /// holder's share in one batched pass; packets carry `round`. A warm
  /// role re-deals without touching the heap.
  void deal(std::uint16_t round, field::Fp61 secret, crypto::CtrDrbg& drbg);

  /// The share dealt to spec.holders[i] (ShamirDealer::share_for of
  /// that holder, bit for bit).
  field::Fp61 share(std::size_t i) const;

  /// The dealt polynomial, for feldman::commit.
  const field::Polynomial& polynomial() const { return dealer_.polynomial(); }

  /// Encode the SharePacket carrying `value` to spec.holders[i] into
  /// `wire`. Returns false (leaving `wire` untouched) when that holder
  /// is this node: own shares never travel. Honest callers pass
  /// share(i); an attacker passes the value it puts on the air.
  bool encode_share(std::size_t i, field::Fp61 value,
                    const crypto::KeyStore& keys, Bytes& wire) const;

  const RoundSpec& spec() const { return spec_; }

 private:
  RoundSpec spec_;
  NodeId self_;
  ShamirDealer dealer_;
  std::vector<field::Fp61> points_;  // holders' public points
  std::vector<field::Fp61> shares_;  // per holder index
};

/// Share-collector side: accumulates authenticated shares into the
/// point-sum at this node's public point.
class HolderRole {
 public:
  /// Precondition: `self` is one of spec.holders. Checks no commitment
  /// until reset() hands it some.
  HolderRole(const RoundSpec& spec, NodeId self);

  /// Re-arm for another round of the same spec: forget the point-sum,
  /// its contributors and the convicted dealers, and expect `round` on
  /// the wire. `commitments` holds the dealers' Feldman verify contexts,
  /// indexed like spec.sources; an empty span, or an empty context,
  /// checks nothing. The contexts must outlive the round. A warm holder
  /// re-arms without touching the heap.
  void reset(std::uint16_t round,
             std::span<const crypto::feldman::VerifyContext> commitments = {});

  /// Accept a share that did not arrive as wire bytes: this node's own
  /// share, or a delivery the caller models without packets. Never
  /// checked against a commitment. Returns false if `source` is not in
  /// the spec or already contributed.
  bool accept_local(NodeId source, field::Fp61 value);

  /// Decode + authenticate + validate one SharePacket addressed to this
  /// node. Returns false on any reject: wrong size, failed tag, wrong
  /// destination or round, unknown source, a duplicate, or a share off
  /// its dealer's commitment. The last puts the dealer into
  /// cheater_mask().
  bool accept_wire(const Bytes& wire, const crypto::KeyStore& keys);

  /// Every spec source has contributed.
  bool complete() const;
  std::uint32_t contributions() const;
  std::uint64_t contributor_mask() const { return mask_; }
  /// Bit i set iff sources[i] dealt this node a share off its
  /// commitment this round.
  std::uint64_t cheater_mask() const { return cheaters_; }

  /// The current (partial or complete) point-sum. Precondition: at
  /// least one contribution.
  SumPacket sum_packet() const;

  const RoundSpec& spec() const { return spec_; }

 private:
  /// Source index of `source` if it has not contributed yet.
  std::optional<std::size_t> open_slot(NodeId source) const;

  RoundSpec spec_;
  NodeId self_;
  field::Fp61 point_;  // public_point(self_)
  std::span<const crypto::feldman::VerifyContext> commitments_;
  field::Fp61 sum_;
  std::uint64_t mask_ = 0;
  std::uint64_t cheaters_ = 0;
};

/// What a reconstruction produced.
struct AggregateOutcome {
  field::Fp61 aggregate;
  /// Bit i set iff sources[i] is covered by the aggregate.
  std::uint64_t contributor_mask = 0;
  /// Point-sums actually interpolated (always degree + 1).
  std::uint32_t sums_used = 0;
};

/// Reconstructor side: collects SumPackets and reconstructs the
/// aggregate from the best consistent subset.
class AggregatorRole {
 public:
  explicit AggregatorRole(const RoundSpec& spec);

  /// Re-arm for another round of the same spec: forget every accepted
  /// sum and expect `round` on the wire. Buffers are kept, so a warm
  /// aggregator re-arms and reconstructs without touching the heap.
  void reset(std::uint16_t round);

  /// Accept one point-sum. Returns false on a reject: wrong round,
  /// unknown holder, an empty mask (a holder that heard no share), a
  /// mask with bits beyond the source list, or a duplicate holder
  /// (first packet wins).
  bool accept(const SumPacket& pkt);

  std::uint32_t sums_received() const;

  /// The all-sources contributor mask of the spec.
  std::uint64_t full_mask() const { return full_mask_; }

  /// True iff >= degree+1 sums carry the full all-sources mask (the
  /// no-failure fast path: reconstruction cannot improve further).
  bool full_mask_threshold() const;

  /// The winning mask among those carried by >= degree+1 accepted sums:
  /// maximal popcount, then maximal sum count, then numerically
  /// smallest. nullopt while no mask reaches the threshold. Selection
  /// only — nothing is interpolated.
  std::optional<std::uint64_t> best_mask() const;

  /// Reconstruct from best_mask(): the degree+1 sums of the winning
  /// mask with the smallest holder ids are interpolated, making the
  /// outcome (value AND bookkeeping) independent of arrival order.
  /// nullopt while no mask reaches the threshold.
  std::optional<AggregateOutcome> try_reconstruct();

  const RoundSpec& spec() const { return spec_; }

 private:
  RoundSpec spec_;
  std::uint64_t full_mask_ = 0;
  std::vector<char> seen_;          // per holder index
  std::vector<field::Fp61> sums_;   // per holder index
  std::vector<std::uint64_t> masks_;
  std::vector<std::uint32_t> by_id_;  // holder indices, ascending node id
  std::vector<Share> picked_;         // the sums being interpolated
  field::LagrangeScratch lagrange_;
};

}  // namespace mpciot::core::roles
