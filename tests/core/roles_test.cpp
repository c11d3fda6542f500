// The extracted single-node roles (core/roles.hpp) must compose into
// exactly the round the simulator runs: dealing, share transport,
// point-sum accumulation and reconstruction through the roles yields
// the same aggregate the full-topology engine computes for the same
// secrets. This is the contract the distributed runtime builds on.
#include "core/roles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "core/shamir.hpp"
#include "crypto/feldman.hpp"
#include "crypto/prng.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core::roles {
namespace {

using field::Fp61;

constexpr std::uint64_t kSeed = 0x52304C45ull;  // "R0LE"

RoundSpec make_spec(std::size_t n, std::size_t degree, std::uint16_t round) {
  RoundSpec spec;
  for (std::size_t i = 0; i < n; ++i) {
    spec.sources.push_back(static_cast<NodeId>(i));
    spec.holders.push_back(static_cast<NodeId>(i));
  }
  spec.degree = degree;
  spec.round = round;
  return spec;
}

/// Run a full round through the roles over a loss-free "wire": every
/// source deals, every holder collects every share, `aggregator`
/// collects the sums `holder_filter` lets through.
std::optional<AggregateOutcome> run_roles_round(
    const RoundSpec& spec, const std::vector<Fp61>& secrets,
    const crypto::KeyStore& keys, AggregatorRole& aggregator,
    const std::vector<char>* holder_filter = nullptr) {
  std::vector<HolderRole> holders;
  for (const NodeId h : spec.holders) holders.emplace_back(spec, h);

  Bytes wire;
  for (std::size_t s = 0; s < spec.sources.size(); ++s) {
    crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 1, s), spec.round);
    SourceRole src(spec, spec.sources[s]);
    src.deal(spec.round, secrets[s], drbg);
    for (std::size_t h = 0; h < spec.holders.size(); ++h) {
      if (src.encode_share(h, src.share(h), keys, wire)) {
        EXPECT_TRUE(holders[h].accept_wire(wire, keys));
      } else {
        EXPECT_TRUE(holders[h].accept_local(spec.sources[s], src.share(h)));
      }
    }
  }
  for (std::size_t h = 0; h < holders.size(); ++h) {
    if (holder_filter && !(*holder_filter)[h]) continue;
    EXPECT_TRUE(holders[h].complete());
    EXPECT_TRUE(aggregator.accept(holders[h].sum_packet()));
  }
  return aggregator.try_reconstruct();
}

TEST(Roles, FullRoundReconstructsTheSumOfSecrets) {
  const RoundSpec spec = make_spec(9, 2, 7);
  const crypto::KeyStore keys(11, 9);
  std::vector<Fp61> secrets;
  Fp61 expected{0};
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 2, 0));
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    secrets.push_back(rng.next_fp61());
    expected += secrets.back();
  }
  AggregatorRole agg(spec);
  const auto out = run_roles_round(spec, secrets, keys, agg);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->aggregate, expected);
  EXPECT_EQ(out->contributor_mask, (1ull << 9) - 1);
  EXPECT_EQ(out->sums_used, 3u);
  EXPECT_TRUE(agg.full_mask_threshold());
}

TEST(Roles, AnyThresholdSubsetOfHoldersReconstructsTheSameValue) {
  const RoundSpec spec = make_spec(6, 2, 1);
  const crypto::KeyStore keys(5, 6);
  std::vector<Fp61> secrets;
  Fp61 expected{0};
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 3, 0));
  for (std::size_t i = 0; i < 6; ++i) {
    secrets.push_back(rng.next_fp61());
    expected += secrets.back();
  }
  // Drop different holder subsets down to the threshold: same value.
  for (int drop = 0; drop < 3; ++drop) {
    std::vector<char> filter(6, 1);
    filter[drop] = 0;
    filter[5 - drop] = 0;
    filter[(drop + 2) % 6] = 0;  // leaves 3 = degree+1 holders
    AggregatorRole agg(spec);
    const auto out = run_roles_round(spec, secrets, keys, agg, &filter);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->aggregate, expected);
  }
}

TEST(Roles, MatchesTheSimulatorForTheSameSecrets) {
  // The cross-check the distributed harness relies on: a simulator
  // round over a loss-free deployment and a roles round over a perfect
  // wire agree on expected sum AND reconstructed aggregate.
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;  // loss-free short links
  const net::Topology topo = net::testbeds::grid(3, 3, 8.0, 0x9D, radio);
  const crypto::KeyStore keys(21, topo.size());
  std::vector<NodeId> all;
  for (NodeId i = 0; i < topo.size(); ++i) all.push_back(i);
  const auto cfg = make_s3_config(topo, all, /*degree=*/2, /*ntx_full=*/8);
  const SssProtocol protocol(topo, keys, cfg);

  std::vector<Fp61> secrets;
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 4, 0));
  for (std::size_t i = 0; i < all.size(); ++i) {
    secrets.push_back(rng.next_fp61());
  }

  sim::Simulator sim(3);
  Session session(protocol);
  const AggregationResult& sim_result =
      *session.run_round(secrets, sim).flat;
  ASSERT_EQ(sim_result.success_ratio(), 1.0);

  RoundSpec spec;
  spec.sources = cfg.sources;
  spec.holders = cfg.share_holders;
  spec.degree = cfg.degree;
  spec.round = static_cast<std::uint16_t>(cfg.round);
  AggregatorRole agg(spec);
  const auto out = run_roles_round(spec, secrets, keys, agg);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->aggregate, sim_result.expected_sum);
  EXPECT_EQ(out->aggregate, sim_result.nodes[0].aggregate);
}

TEST(Roles, HolderRejectsForeignWrongRoundAndDuplicateShares) {
  const RoundSpec spec = make_spec(4, 1, 3);
  const crypto::KeyStore keys(7, 4);
  crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 5, 0), 0);
  SourceRole src(spec, 0);
  src.deal(spec.round, Fp61{123}, drbg);

  HolderRole h1(spec, 1);
  HolderRole h2(spec, 2);
  Bytes wire;
  ASSERT_TRUE(src.encode_share(1, src.share(1), keys, wire));
  EXPECT_FALSE(h2.accept_wire(wire, keys));  // addressed to holder 1
  EXPECT_TRUE(h1.accept_wire(wire, keys));
  EXPECT_FALSE(h1.accept_wire(wire, keys));  // duplicate source

  RoundSpec other = spec;
  other.round = 4;
  crypto::CtrDrbg drbg2(crypto::derive_seed(kSeed, 5, 1), 0);
  SourceRole src_other(other, 0);
  src_other.deal(other.round, Fp61{123}, drbg2);
  HolderRole h1b(spec, 1);
  ASSERT_TRUE(src_other.encode_share(1, src_other.share(1), keys, wire));
  EXPECT_FALSE(h1b.accept_wire(wire, keys));  // round mismatch
  EXPECT_EQ(h1b.contributions(), 0u);
}

TEST(Roles, SourceDealsTheDealersSharesAndWiresOnlyOthers) {
  // Unsorted holders that are not the source list; the source is one of
  // the holders.
  RoundSpec spec;
  spec.sources = {6, 2, 9};
  spec.holders = {4, 9, 1, 7};
  spec.degree = 2;
  const crypto::KeyStore keys(17, 10);
  SourceRole src(spec, 9);
  for (std::uint16_t round = 0; round < 3; ++round) {
    // Every (re-)deal draws exactly what a fresh ShamirDealer draws
    // from the same stream, and the batched shares are share_for's.
    const Fp61 secret{1000u + round};
    crypto::CtrDrbg role_drbg(crypto::derive_seed(kSeed, 12, round), round);
    crypto::CtrDrbg ref_drbg(crypto::derive_seed(kSeed, 12, round), round);
    src.deal(round, secret, role_drbg);
    const ShamirDealer ref(secret, spec.degree, ref_drbg);
    EXPECT_EQ(src.polynomial().coefficients(),
              ref.polynomial().coefficients());
    for (std::size_t i = 0; i < spec.holders.size(); ++i) {
      EXPECT_EQ(src.share(i), ref.share_for(spec.holders[i]).value);
    }
    // Own share never travels: no packet, the buffer is left alone.
    Bytes wire{0x5A};
    EXPECT_FALSE(src.encode_share(1, src.share(1), keys, wire));
    EXPECT_EQ(wire, Bytes{0x5A});
    // Other holders get the value passed in, under the dealt round.
    ASSERT_TRUE(src.encode_share(3, src.share(3) + Fp61{1}, keys, wire));
    const std::optional<SharePacket> pkt = SharePacket::decode(wire, keys);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->source, 9u);
    EXPECT_EQ(pkt->destination, 7u);
    EXPECT_EQ(pkt->round, round);
    EXPECT_EQ(pkt->share, src.share(3) + Fp61{1});
  }
  EXPECT_THROW(src.share(4), ContractViolation);
  Bytes wire;
  EXPECT_THROW(src.encode_share(4, Fp61{1}, keys, wire), ContractViolation);
}

TEST(Roles, HolderConvictsADealerWhoseShareIsOffItsCommitment) {
  const RoundSpec spec = make_spec(4, 1, 3);
  const crypto::KeyStore keys(7, 4);
  std::vector<SourceRole> dealers;
  std::vector<crypto::feldman::VerifyContext> contexts;
  for (std::size_t s = 0; s < 4; ++s) {
    crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 9, s), 0);
    dealers.emplace_back(spec, spec.sources[s])
        .deal(spec.round, Fp61{100 + s}, drbg);
    contexts.emplace_back(crypto::feldman::commit(dealers[s].polynomial()));
  }
  // Node ids double as holder indices in this spec.
  const auto honest = [&](NodeId src, NodeId dst) {
    return dealers[src].share(dst);
  };
  // The SharePacket `src` puts on the air to `dst`, carrying `value`.
  const auto wire = [&](NodeId src, NodeId dst, Fp61 value) {
    Bytes out;
    EXPECT_TRUE(dealers[src].encode_share(dst, value, keys, out));
    return out;
  };

  HolderRole h1(spec, 1);
  HolderRole h2(spec, 2);
  h1.reset(spec.round, contexts);
  h2.reset(spec.round, contexts);
  // Source 0 deals holder 1 a share off its commitment: rejected, and
  // the dealer is convicted.
  EXPECT_FALSE(h1.accept_wire(wire(0, 1, honest(0, 1) + Fp61{1}), keys));
  EXPECT_EQ(h1.cheater_mask(), 0b0001u);
  EXPECT_EQ(h1.contributor_mask(), 0u);
  // Its honest share at another holder is accepted.
  EXPECT_TRUE(h2.accept_wire(wire(0, 2, honest(0, 2)), keys));
  EXPECT_EQ(h2.cheater_mask(), 0u);
  // Other dealers' honest shares still count at holder 1, and a share
  // taken through accept_local is never checked.
  EXPECT_TRUE(h1.accept_wire(wire(3, 1, honest(3, 1)), keys));
  EXPECT_TRUE(h1.accept_local(1, honest(1, 1) + Fp61{5}));
  EXPECT_EQ(h1.contributor_mask(), 0b1010u);
  EXPECT_EQ(h1.cheater_mask(), 0b0001u);
  EXPECT_EQ(h1.sum_packet().sum, honest(3, 1) + honest(1, 1) + Fp61{5});
  // A re-armed holder forgets the conviction.
  h1.reset(spec.round, contexts);
  EXPECT_EQ(h1.cheater_mask(), 0u);
  EXPECT_TRUE(h1.accept_wire(wire(0, 1, honest(0, 1)), keys));

  // An empty context checks nothing; the other dealers stay checked.
  std::vector<crypto::feldman::VerifyContext> partial = contexts;
  partial[2] = crypto::feldman::VerifyContext{};
  HolderRole h3(spec, 3);
  h3.reset(spec.round, partial);
  EXPECT_TRUE(h3.accept_wire(wire(2, 3, honest(2, 3) + Fp61{1}), keys));
  EXPECT_FALSE(h3.accept_wire(wire(0, 3, honest(0, 3) + Fp61{1}), keys));
  EXPECT_EQ(h3.cheater_mask(), 0b0001u);
  // So does a holder handed no commitments at all.
  HolderRole h0(spec, 0);
  EXPECT_TRUE(h0.accept_wire(wire(1, 0, honest(1, 0) + Fp61{1}), keys));
  EXPECT_EQ(h0.cheater_mask(), 0u);
  // The span must match the source list.
  EXPECT_THROW(h0.reset(spec.round, std::span(contexts).first(3)),
               ContractViolation);
}

TEST(Roles, RearmedHolderMatchesAFreshOneAcrossRounds) {
  const RoundSpec base = make_spec(5, 2, 0);
  const crypto::KeyStore keys(17, 5);
  constexpr NodeId kSelf = 2;
  HolderRole warm(base, kSelf);
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 10, 0));
  std::vector<Bytes> previous;
  for (std::uint16_t round = 0; round < 4; ++round) {
    warm.reset(round);
    // Last round's packets are stale now.
    for (const Bytes& pkt : previous) EXPECT_FALSE(warm.accept_wire(pkt, keys));
    EXPECT_EQ(warm.contributions(), 0u);

    RoundSpec spec = base;
    spec.round = round;
    HolderRole fresh(spec, kSelf);
    // Source `round` stays silent, so every round sums another subset
    // (round 2 silences the holder's own share).
    previous.clear();
    Bytes pkt;
    for (std::size_t s = 0; s < spec.sources.size(); ++s) {
      if (s == round) continue;
      crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 11, s), round);
      SourceRole src(spec, spec.sources[s]);
      src.deal(round, rng.next_fp61(), drbg);
      if (src.encode_share(kSelf, src.share(kSelf), keys, pkt)) {
        previous.push_back(pkt);
        EXPECT_TRUE(warm.accept_wire(pkt, keys));
        EXPECT_TRUE(fresh.accept_wire(pkt, keys));
      } else {
        EXPECT_TRUE(warm.accept_local(spec.sources[s], src.share(kSelf)));
        EXPECT_TRUE(fresh.accept_local(spec.sources[s], src.share(kSelf)));
      }
    }
    EXPECT_EQ(warm.contributor_mask(), 0b11111u & ~(1u << round));
    EXPECT_FALSE(warm.complete());
    EXPECT_EQ(warm.sum_packet().round, round);
    EXPECT_EQ(warm.sum_packet().encode(), fresh.sum_packet().encode());
  }
}

TEST(Roles, AggregatorRejectsBadSumsAndKeepsFirstPerHolder) {
  const RoundSpec spec = make_spec(4, 1, 9);
  AggregatorRole agg(spec);
  SumPacket pkt;
  pkt.holder = 2;
  pkt.contribution_count = 2;
  pkt.round = 9;
  pkt.sum = Fp61{5};
  pkt.contributors = 0b0011;
  EXPECT_TRUE(agg.accept(pkt));
  EXPECT_FALSE(agg.accept(pkt));  // duplicate holder
  pkt.holder = 99;
  EXPECT_FALSE(agg.accept(pkt));  // unknown holder
  pkt.holder = 3;
  pkt.round = 8;
  EXPECT_FALSE(agg.accept(pkt));  // wrong round
  pkt.round = 9;
  pkt.contribution_count = 5;
  pkt.contributors = 0b10011;  // bit beyond the 4-source list
  EXPECT_FALSE(agg.accept(pkt));
  pkt.contribution_count = 0;
  pkt.contributors = 0;  // empty mask: the holder heard no share
  EXPECT_FALSE(agg.accept(pkt));
  EXPECT_EQ(agg.sums_received(), 1u);
  EXPECT_FALSE(agg.try_reconstruct().has_value());  // below threshold
}

SumPacket sum_packet(NodeId holder, std::uint64_t mask, std::uint16_t round,
                     Fp61 sum) {
  SumPacket pkt;
  pkt.holder = holder;
  pkt.contribution_count = static_cast<std::uint8_t>(std::popcount(mask));
  pkt.round = round;
  pkt.sum = sum;
  pkt.contributors = mask;
  return pkt;
}

/// Accepts `pkts` into a fresh aggregator in every possible order and
/// checks that each order picks `want_mask` and reconstructs the same
/// value from the same degree+1 sums.
void expect_order_independent_choice(const RoundSpec& spec,
                                     const std::vector<SumPacket>& pkts,
                                     std::uint64_t want_mask) {
  std::vector<std::size_t> order(pkts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::optional<Fp61> first_value;
  do {
    AggregatorRole agg(spec);
    for (const std::size_t i : order) ASSERT_TRUE(agg.accept(pkts[i]));
    ASSERT_EQ(agg.best_mask(), want_mask);
    const auto out = agg.try_reconstruct();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->contributor_mask, want_mask);
    EXPECT_EQ(out->sums_used, spec.degree + 1);
    if (!first_value.has_value()) first_value = out->aggregate;
    EXPECT_EQ(out->aggregate, *first_value);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Roles, EqualWidthMasksTieBreakOnCountThenValue) {
  // Degree 1: two sums reach the threshold. 0b0011 and 0b0101 are
  // equally wide, so the one more holders carry wins; on equal counts
  // the numerically smaller mask wins — whatever the arrival order.
  const RoundSpec spec = make_spec(6, 1, 2);
  expect_order_independent_choice(
      spec,
      {sum_packet(0, 0b0011, 2, Fp61{11}), sum_packet(1, 0b0011, 2, Fp61{12}),
       sum_packet(2, 0b0101, 2, Fp61{13}), sum_packet(3, 0b0101, 2, Fp61{14}),
       sum_packet(4, 0b0101, 2, Fp61{15})},
      0b0101);
  expect_order_independent_choice(
      spec,
      {sum_packet(0, 0b0101, 2, Fp61{21}), sum_packet(1, 0b0011, 2, Fp61{22}),
       sum_packet(2, 0b0101, 2, Fp61{23}), sum_packet(3, 0b0011, 2, Fp61{24})},
      0b0011);
}

TEST(Roles, RearmedAggregatorMatchesAFreshOneAcrossRounds) {
  const RoundSpec base = make_spec(5, 2, 0);
  AggregatorRole warm(base);
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 8, 0));
  std::vector<SumPacket> previous;
  for (std::uint16_t round = 0; round < 4; ++round) {
    warm.reset(round);
    // Last round's packets are stale now.
    for (const SumPacket& pkt : previous) EXPECT_FALSE(warm.accept(pkt));
    EXPECT_EQ(warm.sums_received(), 0u);

    RoundSpec spec = base;
    spec.round = round;
    AggregatorRole fresh(spec);
    // Mixed masks: four full sums win on even rounds; on odd rounds only
    // two are full and the reduced-mask trio wins.
    previous.clear();
    for (NodeId h = 0; h < 5; ++h) {
      const bool full = (round % 2 == 0) ? h < 4 : h < 2;
      previous.push_back(
          sum_packet(h, full ? 0b11111 : 0b01111, round, rng.next_fp61()));
    }
    for (const SumPacket& pkt : previous) {
      EXPECT_EQ(warm.accept(pkt), fresh.accept(pkt));
    }
    EXPECT_EQ(warm.sums_received(), fresh.sums_received());
    EXPECT_EQ(warm.full_mask_threshold(), fresh.full_mask_threshold());
    EXPECT_EQ(warm.best_mask(), fresh.best_mask());
    const auto a = warm.try_reconstruct();
    const auto b = fresh.try_reconstruct();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->aggregate, b->aggregate);
      EXPECT_EQ(a->contributor_mask, b->contributor_mask);
      EXPECT_EQ(a->sums_used, b->sums_used);
    }
  }
}

TEST(Roles, ReducedButConsistentMaskWinsOverFragmentedFullMasks) {
  // Threshold recovery: three holders agree on a reduced mask (a source
  // crashed), one straggler carries a different partial mask. The
  // consistent trio reconstructs; the aggregate covers its mask.
  const RoundSpec spec = make_spec(5, 2, 0);
  const crypto::KeyStore keys(13, 5);
  std::vector<Fp61> secrets;
  crypto::Xoshiro256 rng(crypto::derive_seed(kSeed, 6, 0));
  Fp61 reduced_sum{0};
  for (std::size_t i = 0; i < 5; ++i) {
    secrets.push_back(rng.next_fp61());
    if (i != 4) reduced_sum += secrets[i];
  }

  std::vector<HolderRole> holders;
  for (const NodeId h : spec.holders) holders.emplace_back(spec, h);
  Bytes wire;
  for (std::size_t s = 0; s < 5; ++s) {
    crypto::CtrDrbg drbg(crypto::derive_seed(kSeed, 7, s), 0);
    SourceRole src(spec, spec.sources[s]);
    src.deal(spec.round, secrets[s], drbg);
    for (std::size_t h = 0; h < 5; ++h) {
      if (s == 4 && h != 1) continue;  // source 4 "crashed" mid-deal:
                                       // only holder 1 got its share
      if (src.encode_share(h, src.share(h), keys, wire)) {
        holders[h].accept_wire(wire, keys);
      } else {
        holders[h].accept_local(spec.sources[s], src.share(h));
      }
    }
  }
  AggregatorRole agg(spec);
  for (auto& h : holders) agg.accept(h.sum_packet());
  const auto out = agg.try_reconstruct();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->contributor_mask, 0b01111ull);
  EXPECT_EQ(out->aggregate, reduced_sum);
  EXPECT_FALSE(agg.full_mask_threshold());
}

TEST(Roles, SpecContractsAreChecked) {
  RoundSpec spec = make_spec(3, 1, 0);
  spec.degree = 0;
  EXPECT_THROW(validate(spec), ContractViolation);
  spec = make_spec(3, 3, 0);  // degree+1 > holders
  EXPECT_THROW(validate(spec), ContractViolation);
  spec = make_spec(3, 1, 0);
  spec.sources.push_back(0);  // duplicate
  EXPECT_THROW(validate(spec), ContractViolation);
  spec = make_spec(3, 1, 0);
  spec.holders.push_back(1);  // duplicate holder
  EXPECT_THROW(validate(spec), ContractViolation);
  // Unsorted lists: duplicates apart in list order are still found, and
  // distinct ids in any order pass.
  spec = make_spec(3, 1, 0);
  spec.sources = {9, 4, 7, 4, 2};
  EXPECT_THROW(validate(spec), ContractViolation);
  spec.sources = {9, 4, 7, 2};
  spec.holders = {7, 2, 9};
  EXPECT_NO_THROW(validate(spec));
  spec.holders = {7, 2, 9, 2};
  EXPECT_THROW(validate(spec), ContractViolation);
  spec = make_spec(3, 1, 0);
  EXPECT_THROW(SourceRole(spec, 99), ContractViolation);
  EXPECT_THROW(HolderRole(spec, 99), ContractViolation);
}

}  // namespace
}  // namespace mpciot::core::roles
