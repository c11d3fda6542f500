#include "core/roles.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace mpciot::core::roles {

namespace {

std::uint64_t mask_for(std::size_t source_count) {
  return source_count == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << source_count) - 1;
}

/// Sorts its own copy: cheap enough for the hierarchical engine, which
/// rebuilds a group's roles every group round.
bool has_duplicate(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

}  // namespace

void validate(const RoundSpec& spec) {
  MPCIOT_REQUIRE(!spec.sources.empty(), "RoundSpec: no sources");
  MPCIOT_REQUIRE(!spec.holders.empty(), "RoundSpec: no holders");
  MPCIOT_REQUIRE(spec.sources.size() <= 64,
                 "RoundSpec: the SumPacket contributor bitmap caps a round "
                 "at 64 sources");
  MPCIOT_REQUIRE(spec.degree >= 1, "RoundSpec: degree 0 would broadcast "
                                   "the secret");
  MPCIOT_REQUIRE(spec.degree + 1 <= spec.holders.size(),
                 "RoundSpec: fewer holders than the reconstruction "
                 "threshold");
  MPCIOT_REQUIRE(!has_duplicate(spec.sources), "RoundSpec: duplicate source");
  MPCIOT_REQUIRE(!has_duplicate(spec.holders), "RoundSpec: duplicate holder");
}

std::optional<std::size_t> index_of(const std::vector<NodeId>& list,
                                    NodeId node) {
  const auto it = std::find(list.begin(), list.end(), node);
  if (it == list.end()) return std::nullopt;
  return static_cast<std::size_t>(it - list.begin());
}

SourceRole::SourceRole(const RoundSpec& spec, NodeId self)
    : spec_(spec), self_(self), shares_(spec.holders.size()) {
  validate(spec_);
  MPCIOT_REQUIRE(index_of(spec_.sources, self).has_value(),
                 "SourceRole: node is not a source of this round");
  points_.reserve(spec_.holders.size());
  for (const NodeId h : spec_.holders) points_.push_back(public_point(h));
}

void SourceRole::deal(std::uint16_t round, field::Fp61 secret,
                      crypto::CtrDrbg& drbg) {
  spec_.round = round;
  dealer_.reset(secret, spec_.degree, drbg);
  dealer_.evaluate_at(points_, shares_);
}

field::Fp61 SourceRole::share(std::size_t i) const {
  MPCIOT_REQUIRE(i < shares_.size(), "SourceRole: holder index");
  return shares_[i];
}

bool SourceRole::encode_share(std::size_t i, field::Fp61 value,
                              const crypto::KeyStore& keys,
                              Bytes& wire) const {
  MPCIOT_REQUIRE(i < spec_.holders.size(), "SourceRole: holder index");
  const NodeId holder = spec_.holders[i];
  if (holder == self_) return false;
  SharePacket pkt;
  pkt.source = self_;
  pkt.destination = holder;
  pkt.round = spec_.round;
  pkt.share = value;
  pkt.encode_into(keys, wire);
  return true;
}

HolderRole::HolderRole(const RoundSpec& spec, NodeId self)
    : spec_(spec),
      self_(self),
      point_(public_point(self)),
      sum_(field::Fp61{0}) {
  validate(spec_);
  MPCIOT_REQUIRE(index_of(spec_.holders, self).has_value(),
                 "HolderRole: node is not a holder of this round");
}

void HolderRole::reset(
    std::uint16_t round,
    std::span<const crypto::feldman::VerifyContext> commitments) {
  MPCIOT_REQUIRE(commitments.empty() ||
                     commitments.size() == spec_.sources.size(),
                 "HolderRole: one commitment per source, or none");
  spec_.round = round;
  commitments_ = commitments;
  sum_ = field::Fp61{0};
  mask_ = 0;
  cheaters_ = 0;
}

std::optional<std::size_t> HolderRole::open_slot(NodeId source) const {
  const auto idx = index_of(spec_.sources, source);
  if (!idx || ((mask_ >> *idx) & 1)) return std::nullopt;
  return idx;
}

bool HolderRole::accept_local(NodeId source, field::Fp61 value) {
  const auto idx = open_slot(source);
  if (!idx) return false;
  mask_ |= std::uint64_t{1} << *idx;
  sum_ += value;
  return true;
}

bool HolderRole::accept_wire(const Bytes& wire, const crypto::KeyStore& keys) {
  const std::optional<SharePacket> pkt = SharePacket::decode(wire, keys);
  if (!pkt) return false;
  if (pkt->destination != self_) return false;
  if (pkt->round != spec_.round) return false;
  const auto idx = open_slot(pkt->source);
  if (!idx) return false;
  const std::uint64_t bit = std::uint64_t{1} << *idx;
  // Feldman VSS: a share off its dealer's committed polynomial is
  // dropped and convicts the dealer.
  if (!commitments_.empty() && !commitments_[*idx].empty() &&
      !commitments_[*idx].verify(point_, pkt->share)) {
    cheaters_ |= bit;
    return false;
  }
  mask_ |= bit;
  sum_ += pkt->share;
  return true;
}

bool HolderRole::complete() const {
  return mask_ == mask_for(spec_.sources.size());
}

std::uint32_t HolderRole::contributions() const {
  return static_cast<std::uint32_t>(std::popcount(mask_));
}

SumPacket HolderRole::sum_packet() const {
  MPCIOT_REQUIRE(mask_ != 0, "HolderRole: no contributions to sum yet");
  SumPacket pkt;
  pkt.holder = self_;
  pkt.contribution_count = static_cast<std::uint8_t>(std::popcount(mask_));
  pkt.round = spec_.round;
  pkt.sum = sum_;
  pkt.contributors = mask_;
  return pkt;
}

AggregatorRole::AggregatorRole(const RoundSpec& spec)
    : spec_(spec),
      full_mask_(mask_for(spec.sources.size())),
      seen_(spec.holders.size(), 0),
      sums_(spec.holders.size()),
      masks_(spec.holders.size(), 0),
      by_id_(spec.holders.size()) {
  validate(spec_);
  // spec.holders is in schedule order, not necessarily sorted by id.
  for (std::size_t h = 0; h < by_id_.size(); ++h) {
    by_id_[h] = static_cast<std::uint32_t>(h);
  }
  std::sort(by_id_.begin(), by_id_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return spec_.holders[a] < spec_.holders[b];
            });
  picked_.reserve(spec_.degree + 1);
}

void AggregatorRole::reset(std::uint16_t round) {
  spec_.round = round;
  std::fill(seen_.begin(), seen_.end(), 0);
}

bool AggregatorRole::accept(const SumPacket& pkt) {
  if (pkt.round != spec_.round) return false;
  if (pkt.contributors == 0) return false;
  if ((pkt.contributors & ~full_mask_) != 0) return false;
  const auto idx = index_of(spec_.holders, pkt.holder);
  if (!idx) return false;
  if (seen_[*idx]) return false;
  seen_[*idx] = 1;
  sums_[*idx] = pkt.sum;
  masks_[*idx] = pkt.contributors;
  return true;
}

std::uint32_t AggregatorRole::sums_received() const {
  std::uint32_t n = 0;
  for (const char s : seen_) n += s != 0;
  return n;
}

bool AggregatorRole::full_mask_threshold() const {
  std::size_t n = 0;
  for (std::size_t h = 0; h < seen_.size(); ++h) {
    if (seen_[h] && masks_[h] == full_mask_) ++n;
  }
  return n >= spec_.degree + 1;
}

std::optional<std::uint64_t> AggregatorRole::best_mask() const {
  // Maximal popcount, then maximal count of sums carrying the mask, then
  // numerically smallest. Holder lists are <= a group, so the quadratic
  // scan is cheap and allocation-free.
  std::optional<std::uint64_t> best;
  std::size_t best_count = 0;
  int best_pop = -1;
  for (std::size_t h = 0; h < seen_.size(); ++h) {
    if (!seen_[h]) continue;
    const std::uint64_t m = masks_[h];
    std::size_t count = 0;
    for (std::size_t k = 0; k < seen_.size(); ++k) {
      if (seen_[k] && masks_[k] == m) ++count;
    }
    if (count < spec_.degree + 1) continue;
    const int pop = std::popcount(m);
    if (pop > best_pop || (pop == best_pop && count > best_count) ||
        (pop == best_pop && count == best_count && m < *best)) {
      best = m;
      best_count = count;
      best_pop = pop;
    }
  }
  return best;
}

std::optional<AggregateOutcome> AggregatorRole::try_reconstruct() {
  const std::optional<std::uint64_t> mask = best_mask();
  if (!mask.has_value()) return std::nullopt;
  // Interpolate the degree+1 sums of the winning mask with the smallest
  // holder ids.
  picked_.clear();
  for (const std::uint32_t h : by_id_) {
    if (!seen_[h] || masks_[h] != *mask) continue;
    picked_.push_back(Share{spec_.holders[h], sums_[h]});
    if (picked_.size() == spec_.degree + 1) break;
  }
  AggregateOutcome out;
  out.aggregate = reconstruct(picked_, spec_.degree, lagrange_);
  out.contributor_mask = *mask;
  out.sums_used = static_cast<std::uint32_t>(picked_.size());
  return out;
}

}  // namespace mpciot::core::roles
