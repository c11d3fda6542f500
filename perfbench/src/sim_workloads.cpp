// Simulator workloads: core::Campaign over core::Session, one stream,
// one round in flight, single-threaded.
//
//   s3_dcube         naive S3, all 45 DCube-like nodes as sources,
//                    degree 15, NTX calibrated by core::suggest_s3_ntx.
//   hier64_dynamic   HierarchicalProtocol, 8x8 grid, 16 groups on 16
//                    channels, NTX 8, Gilbert-Elliott links + churn.
//   hier2304_sparse  depth-2 fanout-16 tree over a 48x48 grid (sparse
//                    root topology, dense leaf groups), static links.
//
// Every seed the program sees derives from the workload seed through
// crypto::derive_seed.
#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/hierarchical.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "core/wire.hpp"
#include "crypto/keystore.hpp"
#include "crypto/prng.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "probes.hpp"
#include "sim/dynamics.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = mpciot::core;
namespace crypto = mpciot::crypto;
namespace ct = mpciot::ct;
namespace field = mpciot::field;
namespace net = mpciot::net;
namespace sim = mpciot::sim;
using mpciot::NodeId;

/// derive_seed stream tags.
constexpr std::uint64_t kStreamTopo = 0x544F504Full;    // "TOPO"
constexpr std::uint64_t kStreamKeys = 0x4B455953ull;    // "KEYS"
constexpr std::uint64_t kStreamCal = 0x43414C49ull;     // "CALI"
constexpr std::uint64_t kStreamTrial = 0x5452494Cull;   // "TRIL"
constexpr std::uint64_t kStreamSecret = 0x53454352ull;  // "SECR"
constexpr std::uint64_t kStreamLink = 0x44594E4Cull;    // "DYNL"
constexpr std::uint64_t kStreamChurn = 0x44594E43ull;   // "DYNC"

struct Shape {
  const char* name;
  std::uint32_t campaign_rounds;
  std::uint32_t setup_reps;
  bool dynamic;
};

constexpr Shape kShapes[] = {
    {"s3_dcube", 10, 3, false},
    {"hier64_dynamic", 32, 51, true},
    {"hier2304_sparse", 4, 3, false},
};

const Shape& shape_of(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown simulator workload " + name);
}

struct SetupTimes {
  double topology_ms = 0.0;
  double partition_ms = 0.0;
  double calibrate_ms = 0.0;
  double protocol_ms = 0.0;  ///< keystores + protocol constructor
  double total_s = 0.0;
};

/// Everything set-up builds. Members are declared so that protocols are
/// destroyed before the topology and keystore they reference.
struct World {
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<crypto::KeyStore> keys;  ///< flat protocol only
  std::unique_ptr<core::SssProtocol> flat;
  std::unique_ptr<core::HierarchicalProtocol> hier;
  std::unique_ptr<sim::dynamics::LinkDynamics> link;
  std::unique_ptr<sim::dynamics::NodeChurn> churn;
  std::uint32_t ntx = 0;  ///< calibrated S3 NTX (flat only)
  std::size_t largest_group = 0;
  SetupTimes times;
};

std::unique_ptr<World> build_world(const Shape& shape, std::uint64_t seed,
                                   const ct::Transport* transport) {
  auto w = std::make_unique<World>();
  const Clock::time_point t0 = Clock::now();
  Clock::time_point mark = t0;
  const auto lap = [&mark] {
    const Clock::time_point now = Clock::now();
    const double ms = ms_between(mark, now);
    mark = now;
    return ms;
  };

  if (std::string(shape.name) == "s3_dcube") {
    w->topo = std::make_unique<net::Topology>(
        net::testbeds::dcube(crypto::derive_seed(seed, kStreamTopo, 0)));
    w->times.topology_ms = lap();
    const std::size_t n = w->topo->size();
    std::vector<NodeId> sources(n);
    std::iota(sources.begin(), sources.end(), NodeId{0});
    crypto::Xoshiro256 cal(crypto::derive_seed(seed, kStreamCal, 0));
    w->ntx = core::suggest_s3_ntx(*w->topo, sources, /*trials=*/25, cal);
    w->times.calibrate_ms = lap();
    w->keys = std::make_unique<crypto::KeyStore>(
        crypto::derive_seed(seed, kStreamKeys, 0),
        static_cast<std::uint32_t>(n));
    w->flat = std::make_unique<core::SssProtocol>(
        *w->topo, *w->keys,
        core::make_s3_config(*w->topo, sources, core::paper_degree(n), w->ntx),
        transport);
    w->times.protocol_ms = lap();
    w->largest_group = n;
  } else {
    const bool sparse = std::string(shape.name) == "hier2304_sparse";
    const std::uint32_t side = sparse ? 48 : 8;
    w->topo = std::make_unique<net::Topology>(net::testbeds::retry_topology(
        "perfbench: could not build grid", 64, [&](std::uint64_t attempt) {
          return net::testbeds::grid(
              side, side, /*spacing_m=*/12.0,
              crypto::derive_seed(seed, kStreamTopo, attempt));
        }));
    w->times.topology_ms = lap();
    core::HierarchicalConfig cfg;
    cfg.partition = net::partition::grid_blocks(*w->topo, sparse ? 4 : 16);
    w->times.partition_ms = lap();
    cfg.num_channels = static_cast<std::uint16_t>(
        sparse ? std::min<std::size_t>(cfg.partition.size(), 16) : 16);
    cfg.ntx_sharing = 8;
    cfg.ntx_reconstruction = 8;
    cfg.key_seed = crypto::derive_seed(seed, kStreamKeys, 0);
    if (sparse) {
      cfg.depth = 2;
      cfg.fanout = 16;
    }
    for (const auto& members : cfg.partition.groups) {
      w->largest_group = std::max(w->largest_group, members.size());
    }
    w->hier = std::make_unique<core::HierarchicalProtocol>(
        *w->topo, std::move(cfg), transport);
    w->times.protocol_ms = lap();
  }

  if (shape.dynamic) {
    // The sustained_load "hier/dynamic" world: mean burst 8 epochs, 10%
    // stationary bad fraction, 0.5 crashes/s per node.
    const std::uint64_t trial = crypto::derive_seed(seed, kStreamTrial, 0);
    sim::dynamics::LinkDynamicsParams lp;
    lp.seed = crypto::derive_seed(trial, kStreamLink, 0);
    lp.p_bad_to_good = 1.0 / 8.0;
    lp.p_good_to_bad = lp.p_bad_to_good * 0.1 / 0.9;
    lp.bad_extra_loss_db = 12.0;
    lp.drift_sigma_db = 0.3;
    lp.drift_limit_db = 4.0;
    w->link = std::make_unique<sim::dynamics::LinkDynamics>(lp);
    sim::dynamics::NodeChurnParams cp;
    cp.seed = crypto::derive_seed(trial, kStreamChurn, 0);
    cp.crashes_per_sec = 0.5;
    cp.mean_downtime_us = 500 * mpciot::kMillisecond;
    w->churn =
        std::make_unique<sim::dynamics::NodeChurn>(w->topo->size(), cp);
  }
  w->times.total_s = ms_between(t0, Clock::now()) / 1e3;
  return w;
}

void fill_secrets(std::uint64_t seed, std::uint32_t round,
                  std::vector<field::Fp61>& secrets) {
  crypto::Xoshiro256 rng(crypto::derive_seed(seed, kStreamSecret, round));
  for (field::Fp61& s : secrets) s = field::Fp61(rng.next_below(1000));
}

sim::Simulator make_sim(const World& w, std::uint64_t seed,
                        const net::ChannelModel* model) {
  sim::Simulator s(crypto::derive_seed(seed, kStreamTrial, 0));
  if (model != nullptr) {
    s.set_channel_model(model);
    s.set_liveness(w.churn.get());
  }
  return s;
}

core::Session make_session(const World& w) {
  return w.flat != nullptr ? core::Session(*w.flat) : core::Session(*w.hier);
}

struct CampaignOutcome {
  std::vector<double> round_ms;
  std::string digest;
  std::uint64_t not_ok = 0;
  double sim_latency_ms = 0.0;
};

/// One closed-loop stream: each round is submitted when the previous one
/// returns. Round r's host time runs from fill(r) to fill(r + 1), the
/// last round's to Campaign::run returning.
CampaignOutcome run_campaign(const World& w, const Shape& shape,
                             std::uint64_t seed,
                             const net::ChannelModel* model,
                             std::vector<std::string>& errors) {
  sim::Simulator s = make_sim(w, seed, model);
  core::Session session = make_session(w);
  core::CampaignConfig cc;
  cc.rounds = shape.campaign_rounds;
  cc.pipelined = true;
  core::Campaign campaign(session, cc);

  std::vector<Clock::time_point> marks;
  marks.reserve(shape.campaign_rounds + 1);
  const core::CampaignResult& res = campaign.run(
      s, [&](std::uint32_t r, std::vector<field::Fp61>& secrets) {
        marks.push_back(Clock::now());
        fill_secrets(seed, r, secrets);
      });
  marks.push_back(Clock::now());

  CampaignOutcome out;
  for (std::size_t r = 0; r + 1 < marks.size(); ++r) {
    out.round_ms.push_back(ms_between(marks[r], marks[r + 1]));
  }
  std::uint64_t h = fnv1a(&w.ntx, sizeof w.ntx);
  for (std::size_t r = 0; r < res.round_latency_us.size(); ++r) {
    const std::int64_t lat = res.round_latency_us[r];
    h = fnv1a(&lat, sizeof lat, h);
    h = fnv1a(&res.round_ok[r], 1, h);
    if (res.round_ok[r] == 0) {
      ++out.not_ok;
      if (!shape.dynamic) {
        errors.push_back("round " + std::to_string(r) +
                         " not ok on a static workload");
      }
    }
  }
  out.digest = hex64(h);
  out.sim_latency_ms =
      static_cast<double>(res.latency_percentile_us(0.5)) / 1e3;
  return out;
}

/// Independent output check: run round 0 through Session::run_round and
/// compare the aggregate with the sum of the secrets this benchmark
/// generated (static worlds: every source contributes).
void check_first_round(const World& w, std::uint64_t seed,
                       const net::ChannelModel* model,
                       std::vector<std::string>& errors) {
  sim::Simulator s = make_sim(w, seed, model);
  core::Session session = make_session(w);
  std::vector<field::Fp61> secrets(session.secret_count());
  fill_secrets(seed, 0, secrets);
  field::Fp61 total;
  for (const field::Fp61& v : secrets) total = total + v;
  const core::RoundReport& rep = session.run_round(secrets, s);
  const bool dynamic = model != nullptr;
  if (!rep.ok && !dynamic) errors.push_back("check round not ok");
  if (rep.flat != nullptr) {
    std::size_t correct = 0;
    for (const core::NodeOutcome& node : rep.flat->nodes) {
      if (!node.aggregate_correct) continue;
      ++correct;
      if (node.aggregate != total) {
        errors.push_back("flat aggregate differs from the secrets' sum");
        return;
      }
    }
    if (rep.ok && correct == 0) errors.push_back("ok round without aggregate");
  } else {
    const core::HierarchicalResult& h = *rep.hier;
    if (rep.ok && (!h.has_aggregate || h.aggregate != h.expected_sum)) {
      errors.push_back("hierarchical aggregate differs from expected sum");
    }
    if (!dynamic && h.expected_sum != total) {
      errors.push_back("hierarchical expected sum differs from secrets' sum");
    }
  }
}

/// Seal + open replay of SharePackets over every (source, holder) pair
/// of an `n`-node round under `keys`; returns the median microseconds
/// per packet over the repetitions.
double replay_share_packets(const crypto::KeyStore& keys, std::uint32_t n,
                            std::vector<std::string>& errors) {
  mpciot::Bytes wire;
  std::vector<double> per_packet_us;
  const std::uint32_t pairs = n * (n - 1);
  const std::uint32_t reps = std::max<std::uint32_t>(15, 40000 / pairs);
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (NodeId src = 0; src < n; ++src) {
      for (NodeId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        core::SharePacket pkt;
        pkt.source = src;
        pkt.destination = dst;
        pkt.round = static_cast<std::uint16_t>(rep);
        pkt.share = field::Fp61(std::uint64_t{src} * n + dst + rep);
        pkt.encode_into(keys, wire);
        const auto back = core::SharePacket::decode(wire, keys);
        if (!back.has_value() || back->share != pkt.share) {
          errors.push_back("SharePacket replay round-trip failed");
          return 0.0;
        }
      }
    }
    per_packet_us.push_back(ms_between(t0, Clock::now()) * 1e3 / pairs);
  }
  return median(per_packet_us);
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return std::any_of(std::begin(kShapes), std::end(kShapes),
                     [&](const Shape& s) { return name == s.name; });
}

RunRecord run_sim_workload(const RunSpec& spec) {
  const Shape& shape = shape_of(spec.workload);
  RunRecord rec;
  TimedTransport timed(ct::minicast_transport());
  const ct::Transport* transport = spec.traced ? &timed : nullptr;

  std::unique_ptr<World> world = build_world(shape, spec.seed, transport);
  std::unique_ptr<TimedChannelModel> timed_model;
  const net::ChannelModel* model = nullptr;
  const auto bind_model = [&] {
    model = world->link.get();
    if (model != nullptr && spec.traced) {
      timed_model = std::make_unique<TimedChannelModel>(*model);
      model = timed_model.get();
    }
  };

  // Untimed warm-up: a first set-up, the output check and one campaign,
  // so that the timed set-ups below run in a warm process. A sub-ms
  // set-up timed right after process start varied by a third.
  bind_model();
  check_first_round(*world, spec.seed, model, rec.errors);
  rec.digests.push_back(
      run_campaign(*world, shape, spec.seed, model, rec.errors).digest);

  std::vector<double> topo_ms, part_ms, cal_ms, proto_ms;
  for (std::uint32_t i = 0; i < shape.setup_reps; ++i) {
    timed_model.reset();
    world.reset();  // peak memory is one world, not two
    world = build_world(shape, spec.seed, transport);
    rec.setup_s.push_back(world->times.total_s);
    topo_ms.push_back(world->times.topology_ms);
    part_ms.push_back(world->times.partition_ms);
    cal_ms.push_back(world->times.calibrate_ms);
    proto_ms.push_back(world->times.protocol_ms);
  }
  bind_model();

  timed.reset();
  do {
    CampaignOutcome c = run_campaign(*world, shape, spec.seed, model, rec.errors);
    rec.add_campaign(std::move(c.round_ms));
    rec.rounds_not_ok += c.not_ok;
    rec.sim_latency_ms = c.sim_latency_ms;
    rec.digests.push_back(c.digest);
  } while (rec.stream_s < spec.seconds);

  rec.layers.set("net.topology_build_ms", median(topo_ms));
  rec.layers.set("net.partition_ms", median(part_ms));
  rec.layers.set("core.calibrate_ms", median(cal_ms));
  rec.layers.set("core.protocol_build_ms", median(proto_ms));
  rec.layers.set("core.calibrated_ntx", world->ntx);
  if (!spec.traced) return rec;

  const double rounds = static_cast<double>(rec.rounds());
  const TimedTransport::Counters& c = timed.counters();
  const double round_ms = rec.stream_s * 1e3 / rounds;
  rec.layers.set("ct.chain_ms_per_round", c.chain_ms / rounds);
  rec.layers.set("ct.chain_calls_per_round",
                 static_cast<double>(c.chain_calls) / rounds);
  rec.layers.set("ct.slot_entries_per_round",
                 static_cast<double>(c.slot_entries) / rounds);
  rec.layers.set("ct.ns_per_slot_entry",
                 c.slot_entries == 0
                     ? 0.0
                     : c.chain_ms * 1e6 / static_cast<double>(c.slot_entries));
  rec.layers.set("ct.delivery_ratio",
                 c.chain_calls == 0
                     ? 0.0
                     : c.delivery_sum / static_cast<double>(c.chain_calls));
  rec.layers.set("ct.flood_ms_per_round", c.flood_ms / rounds);
  rec.layers.set("ct.flood_calls_per_round",
                 static_cast<double>(c.flood_calls) / rounds);
  rec.layers.set("sim.materialize_ms_per_round",
                 timed_model ? timed_model->ms() / rounds : 0.0);
  rec.layers.set("sim.materialize_calls_per_round",
                 timed_model
                     ? static_cast<double>(timed_model->calls()) / rounds
                     : 0.0);
  rec.layers.set("core.self_ms_per_round",
                 round_ms - (c.chain_ms + c.flood_ms) / rounds);

  // The flat workload replays under its own keystore; hierarchical group
  // keystores are private to the protocol, so a keystore of the largest
  // group's size stands in (key values do not change the cost).
  const std::uint32_t n =
      static_cast<std::uint32_t>(std::min<std::size_t>(world->largest_group, 64));
  const crypto::KeyStore stand_in(crypto::derive_seed(spec.seed, kStreamKeys, 1),
                                  n);
  rec.layers.set("crypto.share_packet_us",
                 replay_share_packets(
                     world->keys != nullptr ? *world->keys : stand_in, n,
                     rec.errors));
  rec.layers.set("crypto.share_packets_per_round",
                 static_cast<double>(c.share_packets) / rounds);
  return rec;
}

}  // namespace perfbench
