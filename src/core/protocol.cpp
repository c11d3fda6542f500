#include "core/protocol.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"
#include "core/bootstrap.hpp"
#include "core/wire.hpp"
#include "crypto/feldman.hpp"
#include "ct/chain_schedule.hpp"
#include "ct/glossy.hpp"

namespace mpciot::core {

namespace {

/// derive_seed stream tag mixing the trial seed into the jam schedule.
constexpr std::uint64_t kStreamJamTrial = 0x41445654ull;  // "ADVT"

/// derive_seed stream tag re-deriving dealer DRBG seeds once a session
/// leaves the historic (epoch 0, round < 2^16) window.
constexpr std::uint64_t kStreamDealerEpoch = 0x5EC5EED0ull;

/// A MiniCast round must start from a node that owns at least one chain
/// entry (an empty first chain would trigger nobody). Pick the candidate
/// closest to the preferred initiator, skipping dead nodes and (when a
/// churn schedule is given) preferring candidates that are up at the
/// phase start; if every candidate is churn-down right now, fall back to
/// the closest non-failed one — the phase then limps along on timeouts
/// as nodes recover.
NodeId pick_phase_initiator(const net::Topology& topo, NodeId preferred,
                            const std::vector<NodeId>& candidates,
                            const std::vector<char>& dead,
                            const net::LivenessModel* liveness = nullptr,
                            SimTime at_us = 0) {
  NodeId best = kInvalidNode;
  std::uint32_t best_h = net::Topology::kInvalidHops;
  NodeId fallback = kInvalidNode;
  std::uint32_t fallback_h = net::Topology::kInvalidHops;
  // One hop row for the preferred source (row[preferred] == 0): a
  // single BFS, not |candidates| point queries.
  const std::uint32_t* hops_row = topo.hops_from(preferred);
  for (NodeId c : candidates) {
    if (dead[c]) continue;
    const std::uint32_t h = hops_row[c];
    if (h < fallback_h || (h == fallback_h && c < fallback)) {
      fallback_h = h;
      fallback = c;
    }
    if (liveness != nullptr && liveness->is_down(c, at_us)) continue;
    if (h < best_h || (h == best_h && c < best)) {
      best_h = h;
      best = c;
    }
  }
  if (best != kInvalidNode) return best;
  MPCIOT_REQUIRE(fallback != kInvalidNode,
                 "protocol: no live node can initiate the phase");
  return fallback;
}

}  // namespace

double AggregationResult::success_ratio() const {
  if (nodes.empty()) return 0.0;
  std::size_t live = 0;
  std::size_t ok = 0;
  for (const NodeOutcome& o : nodes) {
    if (o.radio_on_us == 0 && !o.has_aggregate && o.latency_us == 0) {
      // dead node (never participated)
      continue;
    }
    ++live;
    if (o.has_aggregate && o.aggregate_correct) ++ok;
  }
  return live == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(live);
}

SimTime AggregationResult::max_latency_us() const {
  SimTime best = 0;
  for (const NodeOutcome& o : nodes) best = std::max(best, o.latency_us);
  return best;
}

double AggregationResult::mean_latency_us() const {
  if (nodes.empty()) return 0.0;
  double total = 0.0;
  std::size_t count = 0;
  for (const NodeOutcome& o : nodes) {
    if (o.latency_us > 0) {
      total += static_cast<double>(o.latency_us);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

SimTime AggregationResult::max_radio_on_us() const {
  SimTime best = 0;
  for (const NodeOutcome& o : nodes) best = std::max(best, o.radio_on_us);
  return best;
}

double AggregationResult::mean_radio_on_us() const {
  if (nodes.empty()) return 0.0;
  double total = 0.0;
  for (const NodeOutcome& o : nodes) {
    total += static_cast<double>(o.radio_on_us);
  }
  return total / static_cast<double>(nodes.size());
}

SssProtocol::SssProtocol(const net::Topology& topo,
                         const crypto::KeyStore& keys, ProtocolConfig config,
                         const ct::Transport* transport)
    : topo_(&topo),
      keys_(&keys),
      config_(std::move(config)),
      spec_{config_.sources, config_.share_holders, config_.degree,
            static_cast<std::uint16_t>(config_.round & 0xFFFFu)},
      transport_(transport != nullptr ? transport
                                      : &ct::minicast_transport()),
      engine_(config_.adversary, topo.size()),
      sharing_(),
      recon_() {
  // SharePacket/SumPacket carry u16 node ids on the wire; a flat round
  // over a larger (sub)topology would silently alias ids if encoding
  // truncated. Reject at construction instead.
  MPCIOT_REQUIRE(topo.size() <= 0x10000,
                 "protocol: node ids are u16 on the wire; this topology "
                 "needs hierarchical grouping");
  roles::validate(spec_);
  for (NodeId s : config_.sources) {
    MPCIOT_REQUIRE(s < topo.size(), "protocol: source id out of range");
  }
  for (NodeId h : config_.share_holders) {
    MPCIOT_REQUIRE(h < topo.size(), "protocol: holder id out of range");
  }
  MPCIOT_REQUIRE(config_.initiator < topo.size(),
                 "protocol: initiator out of range");
  // The chains are pure functions of the participant lists; build them
  // once (after validation) instead of per round.
  sharing_ = ct::make_sharing_schedule(config_.sources, config_.share_holders);
  recon_ = ct::make_reconstruction_schedule(config_.share_holders);
}

const AggregationResult& SssProtocol::run_round(
    const std::vector<field::Fp61>& secrets, sim::Simulator& sim,
    const RoundEnv& env, RoundWorkspace& ws) const {
  MPCIOT_REQUIRE(secrets.size() == config_.sources.size(),
                 "protocol: one secret per source required");
  const std::size_t n = topo_->size();
  const std::size_t num_sources = config_.sources.size();
  const std::size_t num_holders = config_.share_holders.size();
  const std::size_t k = config_.degree;

  // Session round/nonce ids: the constructed base round unless a
  // Session override rides the environment. The wire (and the cold
  // adversary derivations) carry the low 16 bits; the Session rotates
  // the key epoch before that window can wrap, so a (key, wire round)
  // pair is never reused.
  const std::uint32_t session_round =
      env.round == RoundEnv::kInheritRound ? config_.round : env.round;
  const std::uint16_t wire_round =
      static_cast<std::uint16_t>(session_round & 0xFFFFu);
  const crypto::KeyStore& keys = env.keys != nullptr ? *env.keys : *keys_;

  std::vector<char>& dead = ws.dead;
  dead.assign(n, 0);
  for (NodeId f : config_.failed_nodes) {
    MPCIOT_REQUIRE(f < n, "protocol: failed node id out of range");
    dead[f] = 1;
  }
  MPCIOT_REQUIRE(!dead[config_.initiator],
                 "protocol: the round initiator must be alive");

  // Churn: a source that is down when the round starts reads no sensor
  // and deals nothing — for this round it is as absent as a failed node
  // (its crash may end mid-round; it then rejoins as a relay). Nodes
  // that crash later dealt normally; whatever shares they did not get
  // out surface as missing contributors downstream.
  std::vector<char>& down_at_start = ws.down_at_start;
  down_at_start.assign(n, 0);
  if (env.liveness != nullptr) {
    for (NodeId i = 0; i < n; ++i) {
      down_at_start[i] = env.liveness->is_down(i, env.start_time_us) ? 1 : 0;
    }
  }
  const auto participates = [&](NodeId i) {
    return !dead[i] && !down_at_start[i];
  };

  // kJamSlots: decorate the trial's channel model so every transport
  // inherits the jammers through the channel seam. The decorator lives
  // on this frame; `adv_env` shadows the environment for the round.
  std::optional<JammerChannel> jammer;
  RoundEnv adv_env = env;
  if (engine_.active() && engine_.kind() == AttackKind::kJamSlots) {
    jammer.emplace(env.channel_model, config_.adversary.attackers,
                   crypto::derive_seed(config_.adversary.seed,
                                       kStreamJamTrial, sim.seed()),
                   config_.adversary.jam_duty, config_.adversary.jam_epoch_us);
    adv_env.channel_model = &*jammer;
  }

  // Node id -> holder index (kNotHolder for relays), replacing the old
  // per-round hash map.
  ws.holder_pos.assign(n, RoundWorkspace::kNotHolder);
  for (std::size_t h = 0; h < num_holders; ++h) {
    ws.holder_pos[config_.share_holders[h]] = static_cast<std::uint32_t>(h);
  }

  // The round's shared roles: one dealer per source, one accumulator per
  // share holder and one aggregator. Hierarchical groups of different
  // shapes share a workspace, so they are rebuilt when the spec changes.
  if (!ws.aggregator.has_value() ||
      ws.aggregator->spec().degree != spec_.degree ||
      ws.aggregator->spec().sources != spec_.sources ||
      ws.aggregator->spec().holders != spec_.holders) {
    ws.aggregator.emplace(spec_);
    ws.sources.clear();
    for (const NodeId s : config_.sources) ws.sources.emplace_back(spec_, s);
    ws.holders.clear();
    for (const NodeId h : config_.share_holders) {
      ws.holders.emplace_back(spec_, h);
    }
  }

  // ---- Stage 0: deal shares locally (live sources only) ----
  ws.dealt.assign(num_sources, 0);
  field::Fp61 expected_sum;
  std::uint64_t live_source_mask = 0;
  // Epoch 0 rounds below 2^16 keep the historic per-(round, node) DRBG
  // stream bit for bit; past that window the base seed is re-derived
  // from (epoch, round) so dealer streams never alias after a
  // wire-round wrap.
  const bool legacy_stream =
      env.key_epoch == 0 && session_round < 0x10000u;
  const std::uint64_t dealer_base_seed =
      legacy_stream
          ? sim.seed()
          : crypto::derive_seed(
                sim.seed(), kStreamDealerEpoch,
                (static_cast<std::uint64_t>(env.key_epoch) << 32) |
                    session_round);
  for (std::size_t i = 0; i < num_sources; ++i) {
    const NodeId src = config_.sources[i];
    if (!participates(src)) continue;
    // Domain-separate the DRBG by (round, node).
    crypto::CtrDrbg drbg(
        dealer_base_seed,
        0x5EC0000000000000ull |
            (static_cast<std::uint64_t>(wire_round) << 32) | src);
    ws.sources[i].deal(wire_round, secrets[i], drbg);
    ws.dealt[i] = 1;
    expected_sum += secrets[i];
    live_source_mask |= (std::uint64_t{1} << i);
  }

  const std::uint64_t attacker_source_bits =
      engine_.active() ? engine_.attacker_bits(config_.sources) : 0;
  // Honest nodes must end up with an aggregate covering at least these.
  const std::uint64_t required_mask = live_source_mask & ~attacker_source_bits;

  // Feldman VSS: one commitment per dealing source. Attackers commit to
  // their true polynomial — a forged commitment could only widen the
  // detection surface, so an honest commitment with tampered shares is
  // the verifier's worst case. Cold path: the commitment pool is only
  // materialized when VSS is on.
  const std::uint32_t vss_bytes =
      config_.feldman_vss
          ? static_cast<std::uint32_t>(
                (k + 1) * crypto::feldman::Commitment::kElementBytes)
          : 0;
  if (config_.feldman_vss) {
    ws.commitments.assign(num_sources, std::nullopt);
    ws.verify_ctx.assign(num_sources, crypto::feldman::VerifyContext{});
    for (std::size_t s = 0; s < num_sources; ++s) {
      if (ws.dealt[s]) {
        ws.commitments[s] = crypto::feldman::commit(ws.sources[s].polynomial());
        // Montgomery-cached view for the per-holder verify loop below:
        // to_mont runs once per element here instead of once per
        // (holder, element) in stage 1b.
        ws.verify_ctx[s] = crypto::feldman::VerifyContext(*ws.commitments[s]);
      }
    }
  }

  // kInconsistentShares: the second polynomial each attacker source
  // deals to its equivocation targets (cold path).
  if (engine_.active() && engine_.kind() == AttackKind::kInconsistentShares) {
    ws.equiv_dealers.assign(num_sources, std::nullopt);
    for (std::size_t s = 0; s < num_sources; ++s) {
      const NodeId src = config_.sources[s];
      if (!ws.dealt[s] || !engine_.is_attacker(src)) continue;
      crypto::CtrDrbg drbg =
          engine_.equivocation_drbg(sim.seed(), wire_round, src);
      ws.equiv_dealers[s].emplace(spec_, src);
      ws.equiv_dealers[s]->deal(wire_round, secrets[s], drbg);
    }
  }

  // One context serves every phase of the round (and, when a Session or
  // composition layer provides one, the whole trial): buffers are
  // reused and the epoch-walked channel view continues instead of
  // replaying the dynamics chain from 0.
  ct::RoundContext* const round_scratch =
      env.scratch != nullptr ? env.scratch : &ws.ct;

  // ---- Stage 0b: round-start sync flood ----
  ct::GlossyConfig& sync_cfg = ws.sync_cfg;
  sync_cfg = ct::GlossyConfig{};
  sync_cfg.initiator = config_.initiator;
  sync_cfg.ntx = 3;
  sync_cfg.payload_bytes = 8;
  sync_cfg.start_time_us = env.start_time_us;
  sync_cfg.channel_model = adv_env.channel_model;
  sync_cfg.liveness = env.liveness;
  transport_->flood_into(*topo_, sync_cfg, sim.channel_rng(), round_scratch,
                         ws.sync);
  const ct::GlossyResult& sync = ws.sync;

  // ---- Stage 1: sharing phase ----
  const ct::SharingSchedule& sharing = sharing_;

  const SimTime share_start_us = env.start_time_us + sync.duration_us;
  ct::MiniCastConfig& share_cfg = ws.share_cfg;
  share_cfg.initiator =
      pick_phase_initiator(*topo_, config_.initiator, config_.sources, dead,
                           env.liveness, share_start_us);
  share_cfg.channel = 0;
  share_cfg.ntx = config_.ntx_sharing;
  share_cfg.payload_bytes = SharePacket::kWireSize + vss_bytes;
  share_cfg.max_chain_slots = kMaxChainSlots;
  share_cfg.radio_policy = config_.early_radio_off
                               ? ct::RadioPolicy::kEarlyOff
                               : ct::RadioPolicy::kUntilQuiescence;
  share_cfg.disabled = dead;
  share_cfg.start_time_us = share_start_us;
  share_cfg.channel_model = adv_env.channel_model;
  share_cfg.liveness = env.liveness;
  // Slot-synced owners of the sharing chain: sources that actually
  // dealt (a source down at round start has nothing to inject even
  // after it recovers). Every live data owner is slot-synchronized:
  // Glossy-class systems maintain network-wide time across rounds, so
  // even a node that missed *this* round's sync flood still knows the
  // TDMA slot boundaries from earlier rounds (clock drift per round is
  // microseconds).
  share_cfg.scheduled_owners.clear();
  for (NodeId o : config_.sources) {
    if (participates(o)) share_cfg.scheduled_owners.push_back(o);
  }
  // Per-holder bitmap of the sharing-chain entries it must collect (its
  // own column, dealing sources only — dead or crashed-at-start sources
  // never deal). Flat layout: holder h's mask occupies words
  // [h * holder_need_words, (h+1) * holder_need_words).
  ws.holder_need_words = (sharing.entries.size() + 63) / 64;
  ws.holder_need.assign(num_holders * ws.holder_need_words, 0);
  for (std::size_t h = 0; h < num_holders; ++h) {
    std::uint64_t* mask = ws.holder_need.data() + h * ws.holder_need_words;
    for (std::size_t s = 0; s < num_sources; ++s) {
      if (participates(config_.sources[s])) {
        ct::bit_set(mask, sharing.entry_index(s, h));
      }
    }
  }
  // The predicate captures only the workspace pointer, so assigning it
  // stays within std::function's small-object storage (no allocation).
  RoundWorkspace* const wsp = &ws;
  share_cfg.done = [wsp](NodeId node, ct::BitView have) {
    const std::uint32_t h = wsp->holder_pos[node];
    if (h == RoundWorkspace::kNotHolder) return true;  // relays: nothing owed
    return have.covers(wsp->holder_need.data() + h * wsp->holder_need_words,
                       wsp->holder_need_words);
  };

  transport_->chain_round_into(*topo_, sharing.entries, share_cfg,
                               sim.channel_rng(), round_scratch,
                               ws.share_round);
  const ct::MiniCastResult& share_round = ws.share_round;

  // ---- Stage 1b: holders decrypt, check and sum what they got ----
  // With VSS on, every holder checks wire shares against the dealers'
  // commitments (a source that did not deal has an empty context).
  std::span<const crypto::feldman::VerifyContext> commitments;
  if (config_.feldman_vss) commitments = ws.verify_ctx;
  std::size_t delivered = 0;
  std::size_t deliverable = 0;
  std::uint64_t cheater_sources_mask = 0;
  std::uint32_t shares_rejected = 0;

  for (std::size_t h = 0; h < num_holders; ++h) {
    roles::HolderRole& role = ws.holders[h];
    role.reset(wire_round, commitments);
    const NodeId holder = config_.share_holders[h];
    if (dead[holder]) continue;
    for (std::size_t s = 0; s < num_sources; ++s) {
      const NodeId src = config_.sources[s];
      if (!participates(src)) continue;
      ++deliverable;
      const std::size_t entry = sharing.entry_index(s, h);
      const roles::SourceRole& source = ws.sources[s];
      if (src == holder) {
        // Own share never travels on air (and is trivially consistent).
        role.accept_local(src, source.share(h));
        ++delivered;
        continue;
      }
      if (!share_round.node_has(holder, entry)) continue;
      ++delivered;
      // The value the source put on the air: its honest share unless it
      // is an attacker misdealing to this holder.
      field::Fp61 on_air = source.share(h);
      if (engine_.is_attacker(src)) {
        if (engine_.kind() == AttackKind::kMalformedShares) {
          on_air = engine_.malformed_share(sim.seed(), wire_round, src,
                                           holder, on_air);
        } else if (engine_.kind() == AttackKind::kInconsistentShares &&
                   engine_.equivocation_target(src, h)) {
          on_air = ws.equiv_dealers[s]->share(h);
        }
      }
      // The actual wire bytes the source would have sent. The holder
      // decrypts and authenticates them, and with VSS on drops a share
      // off its commitment and convicts the dealer. That conviction is
      // the only reject the round-trip may produce.
      source.encode_share(h, on_air, keys, ws.wire);
      if (!role.accept_wire(ws.wire, keys)) {
        MPCIOT_ENSURE((role.cheater_mask() >> s) & 1,
                      "protocol: AES/CMAC round-trip must succeed");
        ++shares_rejected;
      }
    }
    cheater_sources_mask |= role.cheater_mask();
  }

  // The SumPacket holder h broadcasts: its role's point-sum. An
  // attacker-held collector under kPollutedSums folds a nonzero offset
  // into it (contributor bitmap left honest). A holder whose role
  // summed nothing broadcasts nothing.
  const bool polluting =
      engine_.active() && engine_.kind() == AttackKind::kPollutedSums;
  const auto broadcast_sum = [&](std::size_t h) {
    SumPacket pkt = ws.holders[h].sum_packet();
    if (polluting && engine_.is_attacker(pkt.holder)) {
      pkt.sum += engine_.sum_pollution(sim.seed(), wire_round, pkt.holder);
    }
    return pkt;
  };
  const auto broadcasts = [&](std::size_t h) {
    return ws.holders[h].contributor_mask() != 0;
  };

  // Point-sum verdicts (observer-independent): with VSS on, a holder's
  // broadcast sum either matches the product of its contributors'
  // commitments or it does not. Which *observers* can apply a verdict
  // depends on the commitments they heard — resolved per node in stage
  // 3; the verdict itself is computed once here.
  ws.sum_bad.assign(num_holders, 0);
  if (config_.feldman_vss) {
    for (std::size_t h = 0; h < num_holders; ++h) {
      if (!broadcasts(h)) continue;
      const SumPacket pkt = broadcast_sum(h);
      std::vector<const crypto::feldman::Commitment*> parts;
      for (std::size_t s = 0; s < num_sources; ++s) {
        if ((pkt.contributors >> s) & 1) {
          parts.push_back(&*ws.commitments[s]);
        }
      }
      const crypto::feldman::Commitment product =
          crypto::feldman::combine(parts);
      ws.sum_bad[h] =
          crypto::feldman::verify_share(product, public_point(pkt.holder),
                                        pkt.sum)
              ? 0
              : 1;
    }
  }

  // ---- Stage 2: reconstruction phase ----
  const ct::ReconstructionSchedule& recon = recon_;
  roles::AggregatorRole& aggregator = *ws.aggregator;

  // A holder with no live sum cannot inject its entry: model by marking
  // the holder disabled iff dead (a live holder with a partial sum still
  // transmits; receivers filter by the contributor bitmap).
  // Usable entries for the done-predicate: the holders carrying the mask
  // the shared reconstruction rule would pick from every live sum.
  // Completion counts only sums a verifying receiver would accept: with
  // VSS on nodes verify point-sums on reception, so a known-bad sum does
  // not count toward the k+1 threshold and the radio stays on longer.
  aggregator.reset(wire_round);
  for (std::size_t h = 0; h < num_holders; ++h) {
    if (broadcasts(h) && !ws.sum_bad[h]) aggregator.accept(broadcast_sum(h));
  }
  const std::optional<std::uint64_t> best_mask = aggregator.best_mask();
  ws.usable_mask.assign((num_holders + 63) / 64, 0);
  for (std::size_t h = 0; h < num_holders; ++h) {
    if (!ws.sum_bad[h] && best_mask.has_value() &&
        ws.holders[h].contributor_mask() == *best_mask) {
      ct::bit_set(ws.usable_mask.data(), h);
    }
  }
  ws.recon_threshold = k + 1;

  const SimTime recon_start_us = share_start_us + share_round.duration_us;
  ct::MiniCastConfig& recon_cfg = ws.recon_cfg;
  recon_cfg.initiator =
      pick_phase_initiator(*topo_, config_.initiator, config_.share_holders,
                           dead, env.liveness, recon_start_us);
  recon_cfg.channel = 0;
  recon_cfg.ntx = config_.ntx_reconstruction;
  recon_cfg.payload_bytes = SumPacket::kWireSize;
  recon_cfg.max_chain_slots = kMaxChainSlots;
  recon_cfg.radio_policy = share_cfg.radio_policy;
  recon_cfg.disabled = dead;
  recon_cfg.start_time_us = recon_start_us;
  recon_cfg.channel_model = adv_env.channel_model;
  recon_cfg.liveness = env.liveness;
  recon_cfg.scheduled_owners.clear();
  for (NodeId o : config_.share_holders) {
    if (!dead[o]) recon_cfg.scheduled_owners.push_back(o);
  }
  recon_cfg.done = [wsp](NodeId /*node*/, ct::BitView have) {
    return have.count_and(wsp->usable_mask.data(), wsp->usable_mask.size()) >=
           wsp->recon_threshold;
  };

  transport_->chain_round_into(*topo_, recon.entries, recon_cfg,
                               sim.channel_rng(), round_scratch,
                               ws.recon_round);
  const ct::MiniCastResult& recon_round = ws.recon_round;

  // ---- Stage 3: per-node reconstruction from decoded SumPackets ----
  // The result is warm workspace: every field is re-initialized here so
  // nothing from the previous round leaks through.
  AggregationResult& result = ws.result;
  result.nodes.assign(n, NodeOutcome{});
  result.expected_sum = expected_sum;
  result.sync_duration_us = sync.duration_us;
  result.sharing_duration_us = share_round.duration_us;
  result.reconstruction_duration_us = recon_round.duration_us;
  result.total_duration_us =
      sync.duration_us + share_round.duration_us + recon_round.duration_us;
  result.share_delivery_ratio =
      deliverable == 0
          ? 1.0
          : static_cast<double>(delivered) / static_cast<double>(deliverable);
  result.complete_holders = 0;
  for (std::size_t h = 0; h < num_holders; ++h) {
    if (!dead[config_.share_holders[h]] &&
        ws.holders[h].contributor_mask() == live_source_mask) {
      ++result.complete_holders;
    }
  }
  result.cheater_sources_mask = cheater_sources_mask;
  result.cheater_holders_mask = 0;
  result.shares_rejected = shares_rejected;
  result.sums_rejected = 0;
  result.vss_commit_bytes = vss_bytes;

  const SimTime prefix_us = sync.duration_us + share_round.duration_us;
  for (NodeId node = 0; node < n; ++node) {
    NodeOutcome& out = result.nodes[node];
    if (dead[node]) continue;
    out.radio_on_us = sync.radio_on_us[node] + share_round.radio_on_us[node] +
                      recon_round.radio_on_us[node];

    // With VSS on, this node can apply a point-sum verdict only for
    // holders whose full contributor commitment set it heard during the
    // sharing phase (one sharing entry per source suffices: a dealer's
    // commitment rides every share packet it sends).
    std::uint64_t commit_bits = 0;
    if (config_.feldman_vss) {
      for (std::size_t s = 0; s < num_sources; ++s) {
        if (!ws.commitments[s].has_value()) continue;
        for (std::size_t hh = 0; hh < num_holders; ++hh) {
          if (share_round.node_has(node, sharing.entry_index(s, hh))) {
            commit_bits |= (std::uint64_t{1} << s);
            break;
          }
        }
      }
    }

    // Feed the sums this node decoded (own sum included for holders)
    // to the shared reconstruction rule.
    aggregator.reset(wire_round);
    for (std::size_t h = 0; h < num_holders; ++h) {
      if (!broadcasts(h)) continue;
      const bool own = (config_.share_holders[h] == node);
      if (!own && !recon_round.node_has(node, h)) continue;
      // Decode the wire bytes the holder would have broadcast.
      broadcast_sum(h).encode_into(ws.wire);
      const std::optional<SumPacket> decoded = SumPacket::decode(ws.wire);
      MPCIOT_ENSURE(decoded.has_value(), "protocol: SumPacket round-trip");
      if (config_.feldman_vss && ws.sum_bad[h] &&
          (decoded->contributors & ~commit_bits) == 0) {
        ++result.sums_rejected;
        result.cheater_holders_mask |= (std::uint64_t{1} << h);
        continue;
      }
      aggregator.accept(*decoded);
    }
    const std::optional<roles::AggregateOutcome> recon_out =
        aggregator.try_reconstruct();
    if (!recon_out.has_value()) continue;

    out.has_aggregate = true;
    out.sums_used = recon_out->sums_used;
    out.aggregate = recon_out->aggregate;
    out.contributor_mask = recon_out->contributor_mask;
    // Correct = covers every live honest source (attackers may or may
    // not land in the aggregate — either is fine as long as the value
    // matches the contributor mask the node ended up with).
    field::Fp61 chosen_expected;
    for (std::size_t s = 0; s < num_sources; ++s) {
      if ((out.contributor_mask >> s) & 1) chosen_expected += secrets[s];
    }
    out.aggregate_correct =
        ((out.contributor_mask & required_mask) == required_mask) &&
        (out.aggregate == chosen_expected);

    const std::int32_t done_slot = recon_round.done_slot[node];
    if (done_slot >= 0) {
      out.latency_us = prefix_us + static_cast<SimTime>(done_slot + 1) *
                                       recon_round.chain_slot_us;
    } else {
      out.latency_us = result.total_duration_us;
    }
  }

  return result;
}

ProtocolConfig make_s3_config(const net::Topology& topo,
                              const std::vector<NodeId>& sources,
                              std::size_t degree, std::uint32_t ntx_full) {
  ProtocolConfig cfg;
  cfg.sources = sources;
  cfg.share_holders = sources;
  cfg.degree = degree;
  cfg.ntx_sharing = ntx_full;
  cfg.ntx_reconstruction = ntx_full;
  cfg.initiator = topo.center_node();
  cfg.early_radio_off = false;
  return cfg;
}

ProtocolConfig make_s4_config(const net::Topology& topo,
                              const std::vector<NodeId>& sources,
                              std::size_t degree, std::uint32_t ntx_low,
                              std::size_t holder_slack) {
  ProtocolConfig cfg;
  cfg.sources = sources;
  const std::size_t m =
      std::min(degree + 1 + holder_slack, topo.size());
  cfg.share_holders = elect_share_holders(topo, sources, m);
  cfg.degree = degree;
  cfg.ntx_sharing = ntx_low;
  cfg.ntx_reconstruction = ntx_low;
  cfg.initiator = topo.center_node();
  cfg.early_radio_off = true;
  return cfg;
}

std::size_t paper_degree(std::size_t source_count) {
  return std::max<std::size_t>(1, source_count / 3);
}

std::uint32_t suggest_s3_ntx(const net::Topology& topo,
                             const std::vector<NodeId>& sources,
                             std::uint32_t trials, crypto::Xoshiro256& rng,
                             std::uint32_t max_ntx) {
  const ct::SharingSchedule sharing =
      ct::make_sharing_schedule(sources, sources);

  ct::MiniCastConfig base;
  base.initiator = pick_phase_initiator(
      topo, topo.center_node(), sources,
      std::vector<char>(topo.size(), 0));
  base.payload_bytes = SharePacket::kWireSize;
  base.max_chain_slots = kMaxChainSlots;
  base.scheduled_owners = sources;  // slot-synced sources may self-trigger
  // The naive protocol runs the flood "to attain full network coverage"
  // (§III): every node — holder or relay — ends up with the entire chain.
  // That is the condition we calibrate NTX against.
  base.done = [](NodeId, ct::BitView have) { return have.all(); };

  const NtxCalibration cal = calibrate_ntx(
      topo, sharing.entries, base, /*required_done_ratio=*/1.0, trials,
      max_ntx, rng);
  return cal.ntx;
}

}  // namespace mpciot::core
