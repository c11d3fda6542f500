#include "core/adversary.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "crypto/prng.hpp"
#include "field/lagrange.hpp"
#include "net/topology.hpp"

namespace mpciot::core {

namespace {

/// derive_seed stream tags of the adversary engine.
constexpr std::uint64_t kStreamMalformed = 0x4144564Dull;  // "ADVM"
constexpr std::uint64_t kStreamEquivPick = 0x41445645ull;  // "ADVE"
constexpr std::uint64_t kStreamEquivPoly = 0x41445650ull;  // "ADVP"
constexpr std::uint64_t kStreamPollution = 0x41445653ull;  // "ADVS"
constexpr std::uint64_t kStreamJam = 0x4144564Aull;        // "ADVJ"

/// Uniform [0, 1) from a derived seed (one finalizer pass, no state).
double unit_draw(std::uint64_t seed) {
  return static_cast<double>(seed >> 11) * 0x1.0p-53;
}

/// Mix (round, a, b) into one derive_seed index.
constexpr std::uint64_t mix_index(std::uint16_t round, std::uint64_t a,
                                  std::uint64_t b) {
  return (static_cast<std::uint64_t>(round) << 48) | (a << 24) | b;
}

}  // namespace

std::optional<field::Polynomial> consistent_polynomial_for(
    const CollusionView& view, std::size_t degree,
    field::Fp61 candidate_secret) {
  const std::size_t observed = view.observed_shares.size();

  if (observed > degree) {
    // The view over-determines the polynomial: interpolate and check.
    std::vector<field::Sample> samples;
    samples.reserve(observed);
    for (const Share& s : view.observed_shares) {
      samples.push_back(field::Sample{public_point(s.holder), s.value});
    }
    const field::Polynomial p = field::interpolate(samples);
    if (p.constant_term() == candidate_secret) return p;
    return std::nullopt;
  }

  // Underdetermined: pin (0, candidate) plus the observed shares and pad
  // with arbitrary extra points until degree+1 constraints, then
  // interpolate. Any padding works; we use deterministic points beyond
  // the observed holders' x-range.
  std::vector<field::Sample> samples;
  samples.reserve(degree + 1);
  samples.push_back(field::Sample{field::Fp61::zero(), candidate_secret});
  std::uint64_t next_free_x = 1;
  for (const Share& s : view.observed_shares) {
    const field::Fp61 x = public_point(s.holder);
    samples.push_back(field::Sample{x, s.value});
    next_free_x = std::max(next_free_x, x.value() + 1);
  }
  while (samples.size() < degree + 1) {
    samples.push_back(
        field::Sample{field::Fp61{next_free_x}, field::Fp61{next_free_x}});
    ++next_free_x;
  }
  field::Polynomial p = field::interpolate(samples);
  MPCIOT_ENSURE(p.constant_term() == candidate_secret,
                "adversary: constructed polynomial must hit the candidate");
  return p;
}

ReconstructionAttempt attempt_reconstruction(const CollusionView& view,
                                             std::size_t degree) {
  MPCIOT_REQUIRE(!view.observed_shares.empty(),
                 "adversary: an empty view has nothing to interpolate");
  std::vector<field::Sample> samples;
  samples.reserve(view.observed_shares.size());
  for (const Share& s : view.observed_shares) {
    samples.push_back(field::Sample{public_point(s.holder), s.value});
  }
  ReconstructionAttempt out;
  out.meets_threshold = can_reconstruct(degree, samples.size());
  out.value = field::interpolate_at_zero(samples);
  return out;
}

AdversaryEngine::AdversaryEngine(AdversaryConfig config,
                                 std::size_t node_count)
    : cfg_(std::move(config)), is_attacker_(node_count, 0) {
  for (const NodeId a : cfg_.attackers) {
    MPCIOT_REQUIRE(a < node_count, "adversary: attacker id out of range");
    is_attacker_[a] = 1;
  }
}

std::uint64_t AdversaryEngine::attacker_bits(
    const std::vector<NodeId>& schedule) const {
  MPCIOT_REQUIRE(schedule.size() <= 64,
                 "adversary: schedule exceeds the 64-entry bitmap");
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (is_attacker(schedule[i])) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

field::Fp61 AdversaryEngine::malformed_share(std::uint64_t trial_seed,
                                             std::uint16_t round,
                                             NodeId attacker, NodeId holder,
                                             field::Fp61 honest) const {
  // honest + uniform nonzero offset: always off the committed
  // polynomial, so a verifying holder detects every delivered share.
  crypto::Xoshiro256 rng(crypto::derive_seed(
      cfg_.seed ^ trial_seed, kStreamMalformed,
      mix_index(round, attacker, holder)));
  return honest + field::Fp61{1 + rng.next_below(field::Fp61::kModulus - 1)};
}

bool AdversaryEngine::equivocation_target(NodeId attacker,
                                          std::size_t holder_index) const {
  return (crypto::derive_seed(cfg_.seed, kStreamEquivPick,
                              mix_index(0, attacker, holder_index)) &
          1) != 0;
}

crypto::CtrDrbg AdversaryEngine::equivocation_drbg(std::uint64_t trial_seed,
                                                   std::uint16_t round,
                                                   NodeId attacker) const {
  return crypto::CtrDrbg(crypto::derive_seed(
      cfg_.seed ^ trial_seed, kStreamEquivPoly, mix_index(round, attacker, 0)));
}

field::Fp61 AdversaryEngine::sum_pollution(std::uint64_t trial_seed,
                                           std::uint16_t round,
                                           NodeId attacker) const {
  crypto::Xoshiro256 rng(crypto::derive_seed(
      cfg_.seed ^ trial_seed, kStreamPollution,
      mix_index(round, attacker, 0)));
  return field::Fp61{1 + rng.next_below(field::Fp61::kModulus - 1)};
}

JammerChannel::JammerChannel(const net::ChannelModel* inner,
                             std::vector<NodeId> jammers, std::uint64_t seed,
                             double duty, SimTime epoch_us)
    : inner_(inner),
      jammers_(std::move(jammers)),
      seed_(seed),
      duty_(duty),
      epoch_us_(epoch_us) {
  MPCIOT_REQUIRE(duty_ >= 0.0 && duty_ <= 1.0,
                 "jammer: duty must be a probability");
  MPCIOT_REQUIRE(epoch_us_ > 0, "jammer: epoch must be positive");
}

SimTime JammerChannel::epoch_us() const {
  return inner_ != nullptr ? inner_->epoch_us() : epoch_us_;
}

bool JammerChannel::jam_active(NodeId jammer, std::uint64_t epoch) const {
  return unit_draw(crypto::derive_seed(seed_, kStreamJam,
                                       (epoch << 16) | jammer)) < duty_;
}

void JammerChannel::materialize(const net::Topology& topo,
                                std::uint64_t epoch,
                                net::LinkEpochTables& tables) const {
  const std::size_t n = topo.size();
  if (inner_ != nullptr) {
    inner_->materialize(topo, epoch, tables);
  } else {
    // Static world: restart from the frozen snapshot each epoch (the
    // jam overlay below must not accumulate across epochs).
    tables.runs = topo.audibility();
  }
  tables.epoch = epoch;

  // Deafen receiver r: clear its audibility runs, so it hears nobody.
  const auto deafen = [&](NodeId r) {
    for (std::uint32_t w = tables.runs.offsets[r];
         w < tables.runs.offsets[r + 1]; ++w) {
      tables.runs.words[w].bits = 0;
    }
  };
  for (const NodeId j : jammers_) {
    MPCIOT_REQUIRE(j < n, "jammer: id out of range for this topology");
    if (!jam_active(j, epoch)) continue;
    // Noise from j deafens every receiver that can hear j at all (static
    // audibility — jamming reach is physics, not the inner model's
    // current fade), plus j itself: its radio is busy emitting noise.
    deafen(j);
    for (const NodeId r : topo.neighbors(j)) deafen(r);
  }
}

}  // namespace mpciot::core
