// The paper's two protocols, S3 (naive SSS over MiniCast) and S4
// (scalable SSS), as one parameterized engine.
//
// A round runs three stages on the simulated CT network:
//   0. sync     — a short Glossy flood from the initiator (round start);
//   1. sharing  — MiniCast round over the (source x holder) chain, every
//                 sub-slot carrying an AES-128-protected SharePacket;
//   2. reconstruction — MiniCast round over the holder chain, carrying
//                 plaintext SumPackets.
// Aggregates are then reconstructed per node from whatever sums that node
// decoded, exactly as a deployed node would.
//
// S3 and S4 differ only in configuration:
//            holders            NTX                 radio policy
//   S3       all sources        full-coverage NTX   listen to round end
//   S4       m elected nodes    low (paper: 6/5)    early off
//
// Latency (paper metric 1) is per node: the time from round start until
// the node first holds >= degree+1 consistent sums. Radio-on time (paper
// metric 2) is summed over the stages.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/adversary.hpp"
#include "core/roles.hpp"
#include "crypto/feldman.hpp"
#include "crypto/keystore.hpp"
#include "ct/chain_schedule.hpp"
#include "ct/minicast.hpp"
#include "ct/transport.hpp"
#include "field/fp61.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {

class Session;
class Campaign;
class SssProtocol;
class HierarchicalProtocol;

/// Per-run dynamics environment of one aggregation round. Protocol
/// instances are constructed once and shared across (possibly
/// concurrent) trials, so everything that varies per trial rides here:
/// where the round sits on the trial clock, the trial's time-varying
/// channel model, and its crash/recover schedule. Session::run_round
/// derives it from the trial's Simulator; all-null is the static world
/// and reproduces frozen-topology rounds bit for bit.
///
/// The session seam (scratch reuse, round/nonce overrides, epoch keys,
/// the pipelined-campaign timeline) is private: only core::Session and
/// the protocol engines can touch it, so external callers can no longer
/// desynchronize the AES-CTR nonce counter from the round sequence.
struct RoundEnv {
  SimTime start_time_us = 0;
  const net::ChannelModel* channel_model = nullptr;
  const net::LivenessModel* liveness = nullptr;

 private:
  friend class Session;
  friend class Campaign;
  friend class SssProtocol;
  friend class HierarchicalProtocol;

  /// "No session override": the engine falls back to the constructed
  /// ProtocolConfig::round.
  static constexpr std::uint32_t kInheritRound = 0xFFFFFFFFu;

  /// Caller-owned scratch shared across the trial's rounds: buffers are
  /// reused and, with a channel model, the ChannelView continues each
  /// topology's epoch walk from round to round instead of replaying the
  /// dynamics chain from epoch 0 (see ct::RoundContext).
  ct::RoundContext* scratch = nullptr;
  /// Session round override (keys nonces and dealer DRBG streams).
  std::uint32_t round = kInheritRound;
  /// AES key epoch the round runs under (0 = the construction keystore).
  std::uint32_t key_epoch = 0;
  /// Epoch-rotated keystore override; null = the construction keystore.
  const crypto::KeyStore* keys = nullptr;
  /// Pipelined-campaign mode (hierarchical only): a persistent timeline
  /// whose channel bookings carry over between rounds, letting round
  /// r+1's group phase start while round r's recombination floods drain.
  ct::ChannelTimeline* timeline = nullptr;
};

/// Slot cap of every chain round and flood the protocol engines run.
inline constexpr std::uint32_t kMaxChainSlots = 512;

struct ProtocolConfig {
  /// Nodes contributing a secret, in schedule order (max 64 per round —
  /// the SumPacket contributor bitmap width).
  std::vector<NodeId> sources;
  /// Share-holder (public-point) nodes, in schedule order. S3: the
  /// sources themselves. S4: the elected collector set.
  std::vector<NodeId> share_holders;
  /// Polynomial degree k (collusion threshold; k+1 sums reconstruct).
  std::size_t degree = 1;
  std::uint32_t ntx_sharing = 6;
  std::uint32_t ntx_reconstruction = 6;
  /// Base round counter (keys the AES-CTR nonces; reuse across rounds
  /// with the same key would break confidentiality). Widened from u16:
  /// the wire carries round & 0xFFFF, and core::Session rotates the key
  /// epoch before the 16-bit window can wrap, so a (key, wire round)
  /// pair is never reused — the u16 counter silently aliased nonces
  /// after 65,536 rounds. Fixed at construction; only a Session may
  /// override it per round (privately, via RoundEnv).
  std::uint32_t round = 0;
  NodeId initiator = 0;
  /// S4's energy optimization: radios off once NTX spent and local
  /// completion reached.
  bool early_radio_off = false;
  /// Failure injection: nodes dead for the entire round.
  std::vector<NodeId> failed_nodes;
  /// Active-misbehaviour model (kNone: every node honest — the default
  /// consumes no randomness and leaves frozen rounds byte-identical).
  AdversaryConfig adversary;
  /// Feldman VSS: dealers attach polynomial commitments to their
  /// sharing packets (raising the sharing payload by
  /// 16 * (degree + 1) bytes), holders verify every share at accept
  /// time and drop cheaters, and reconstructors verify point-sums they
  /// hold all contributor commitments for. Off by default: the paper's
  /// baseline protocol, byte-identical to previous revisions.
  bool feldman_vss = false;
};

struct NodeOutcome {
  bool has_aggregate = false;
  /// The aggregate covers every live honest source and equals the sum
  /// of the secrets its contributor mask claims. Without an adversary
  /// this is exactly "equals the sum over all live sources".
  bool aggregate_correct = false;
  field::Fp61 aggregate;
  /// Point-sums the node interpolated: degree + 1 whenever it has an
  /// aggregate (roles::AggregatorRole picks them), else 0.
  std::uint32_t sums_used = 0;
  /// Source-list bitmap the node's aggregate covers (bit i = sources[i]).
  std::uint64_t contributor_mask = 0;
  SimTime latency_us = 0;
  SimTime radio_on_us = 0;
};

struct AggregationResult {
  std::vector<NodeOutcome> nodes;  // one per network node
  field::Fp61 expected_sum;        // sum over live sources
  SimTime sync_duration_us = 0;
  SimTime sharing_duration_us = 0;
  SimTime reconstruction_duration_us = 0;
  SimTime total_duration_us = 0;
  /// Sharing-phase delivery: fraction of (live source -> live holder)
  /// shares that arrived.
  double share_delivery_ratio = 0.0;
  /// Holders that assembled a complete sum (all live sources).
  std::uint32_t complete_holders = 0;

  // Byzantine bookkeeping — all zero when no adversary is bound and
  // feldman_vss is off (the frozen baseline).
  /// Source-list bitmap of dealers whose share failed a commitment
  /// check at some holder.
  std::uint64_t cheater_sources_mask = 0;
  /// Holder-list bitmap of collectors whose point-sum failed the
  /// homomorphic commitment check at some verifying node.
  std::uint64_t cheater_holders_mask = 0;
  /// Share-accept rejections across all holders.
  std::uint32_t shares_rejected = 0;
  /// Point-sum rejections across all verifying nodes.
  std::uint32_t sums_rejected = 0;
  /// Commitment bytes attached to each sharing packet (0 without VSS).
  std::uint32_t vss_commit_bytes = 0;

  /// Fraction of live nodes holding a correct aggregate.
  double success_ratio() const;
  SimTime max_latency_us() const;
  double mean_latency_us() const;
  SimTime max_radio_on_us() const;
  double mean_radio_on_us() const;
};

/// Warm per-round state of the flat engine, owned by a core::Session
/// (or by a HierWorkspace for group batch rounds). Buffers grow to the
/// round shape on first use and are reused thereafter: after the
/// warm-up round, the honest static path performs zero heap
/// allocations.
struct RoundWorkspace {
  /// holder_pos sentinel: the node is not a share holder this round.
  static constexpr std::uint32_t kNotHolder = 0xFFFFFFFFu;

  ct::RoundContext ct;             // chain-engine + flood scratch
  ct::GlossyResult sync;           // stage 0b result
  ct::MiniCastResult share_round;  // stage 1 result
  ct::MiniCastResult recon_round;  // stage 2 result
  AggregationResult result;        // stage 3 result (returned by ref)

  std::vector<char> dead;
  std::vector<char> down_at_start;
  std::vector<char> dealt;  // which sources dealt this round
  std::vector<std::optional<crypto::feldman::Commitment>> commitments;
  std::vector<crypto::feldman::VerifyContext> verify_ctx;  // per source
  /// kInconsistentShares: each attacker source's second deal.
  std::vector<std::optional<roles::SourceRole>> equiv_dealers;
  std::vector<std::uint32_t> holder_pos;   // node id -> holder index
  std::vector<std::uint64_t> holder_need;  // flat per-holder entry masks
  std::size_t holder_need_words = 0;
  std::vector<char> sum_bad;
  std::vector<std::uint64_t> usable_mask;
  std::size_t recon_threshold = 0;
  Bytes wire;  // packet encode/decode round-trip buffer
  /// The round's shared roles: stage 0's dealers, one per source,
  /// stage 1b's accumulators, one per share holder, and the aggregator
  /// behind stage 2's completion oracle and every node's stage-3
  /// reconstruction. Re-dealt or re-armed per use; rebuilt only when
  /// the workspace moves to a protocol with another spec.
  std::vector<roles::SourceRole> sources;
  std::vector<roles::HolderRole> holders;
  std::optional<roles::AggregatorRole> aggregator;
  ct::GlossyConfig sync_cfg;
  ct::MiniCastConfig share_cfg;
  ct::MiniCastConfig recon_cfg;
};

class SssProtocol {
 public:
  /// Preconditions: the roles::validate spec invariants (non-empty
  /// source and holder lists, <= 64 unique sources, unique holders,
  /// 1 <= degree, degree + 1 <= holders) plus node ids and the
  /// initiator in range.
  ///
  /// `transport` selects the communication substrate the round runs on
  /// (sync flood + both chain rounds); null means the paper's MiniCast/
  /// Glossy substrate. The transport must outlive the protocol.
  ///
  /// Rounds run through core::Session::run_round, which owns the warm
  /// state, issues monotone round/nonce ids, and rotates key epochs.
  SssProtocol(const net::Topology& topo, const crypto::KeyStore& keys,
              ProtocolConfig config,
              const ct::Transport* transport = nullptr);

  const ProtocolConfig& config() const { return config_; }
  const ct::Transport& transport() const { return *transport_; }

 private:
  friend class Session;
  friend class Campaign;
  friend class HierarchicalProtocol;

  /// The engine: one aggregation round into `ws` (result returned by
  /// reference into ws.result). secrets[i] belongs to config.sources[i].
  /// `env` places the round on the trial clock and carries the dynamics
  /// (a composition layer may start it later or map a parent churn
  /// schedule onto a subtopology). Under churn, sources that are down
  /// at round start never deal — they are excluded from the expected
  /// aggregate like failed_nodes — while nodes that crash mid-round
  /// simply fall silent: their undelivered shares surface as missing
  /// contributors and reconstruction falls back to the Shamir threshold
  /// path (any degree+1 consistent sums). Reported latencies stay
  /// relative to the round start.
  const AggregationResult& run_round(const std::vector<field::Fp61>& secrets,
                                     sim::Simulator& sim, const RoundEnv& env,
                                     RoundWorkspace& ws) const;

  const net::Topology* topo_;
  const crypto::KeyStore* keys_;
  ProtocolConfig config_;
  /// The round's sources/holders/degree as the shared roles see them;
  /// the spec the workspace's AggregatorRole is built from.
  roles::RoundSpec spec_;
  const ct::Transport* transport_;
  AdversaryEngine engine_;
  ct::SharingSchedule sharing_;        // fixed by config at construction
  ct::ReconstructionSchedule recon_;   // fixed by config at construction
};

/// Naive S3: holders = sources, no early radio-off. `ntx_full` should be
/// the full-coverage NTX (see bootstrap::calibrate_ntx or
/// suggest_s3_ntx).
ProtocolConfig make_s3_config(const net::Topology& topo,
                              const std::vector<NodeId>& sources,
                              std::size_t degree, std::uint32_t ntx_full);

/// Scalable S4: m = degree+1+slack elected holders, low NTX, early off.
ProtocolConfig make_s4_config(const net::Topology& topo,
                              const std::vector<NodeId>& sources,
                              std::size_t degree, std::uint32_t ntx_low,
                              std::size_t holder_slack = 2);

/// The paper's degree heuristic: k = max(1, floor(n/3)).
std::size_t paper_degree(std::size_t source_count);

/// Calibrate the full-coverage NTX for S3 on this topology/source set:
/// the smallest NTX in [1, max_ntx] at which every node ends the sharing
/// round holding the whole chain, in each of `trials` trials. When no
/// NTX qualifies it returns `max_ntx` all the same, which the caller
/// cannot tell from `max_ntx` being the first NTX to qualify; call
/// calibrate_ntx for its `satisfied` flag.
std::uint32_t suggest_s3_ntx(const net::Topology& topo,
                             const std::vector<NodeId>& sources,
                             std::uint32_t trials, crypto::Xoshiro256& rng,
                             std::uint32_t max_ntx = 24);

}  // namespace mpciot::core
