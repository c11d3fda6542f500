#include "net/topology.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/assert.hpp"
#include "crypto/prng.hpp"
#include "net/channel_model.hpp"

namespace mpciot::net {
namespace {

/// Stream tag for keyed per-pair shadowing draws ("LINK").
constexpr std::uint64_t kStreamLinkShadow = 0x4C494E4B;

}  // namespace

std::size_t AudRuns::slot(NodeId r, NodeId t) const {
  const auto runs = row(r);
  const std::uint32_t w = t / 64;
  const auto it = std::lower_bound(
      runs.begin(), runs.end(), w,
      [](const AudWord& e, std::uint32_t word) { return e.word < word; });
  if (it == runs.end() || it->word != w) return kNoSlot;
  const std::uint64_t bit = std::uint64_t{1} << (t % 64);
  if ((it->bits & bit) == 0) return kNoSlot;
  return it->slot +
         static_cast<std::size_t>(std::popcount(it->bits & (bit - 1)));
}

void AudRuns::assign(std::size_t receivers, std::span<const Link> links) {
  // Counting sort on receiver; it keeps each receiver's transmitters in
  // input order, i.e. ascending.
  std::vector<std::uint32_t> row_begin(receivers + 1, 0);
  for (const Link& l : links) ++row_begin[l.rx + 1];
  for (std::size_t r = 0; r < receivers; ++r) row_begin[r + 1] += row_begin[r];
  std::vector<NodeId> tx(links.size());
  prr.resize(links.size());
  rssi.resize(links.size());
  {
    std::vector<std::uint32_t> cursor(row_begin.begin(), row_begin.end() - 1);
    for (const Link& l : links) {
      const std::uint32_t k = cursor[l.rx]++;
      tx[k] = l.tx;
      prr[k] = l.prr;
      rssi[k] = l.rssi;
    }
  }
  // Pack each receiver's transmitter list into word runs.
  offsets.assign(receivers + 1, 0);
  words.clear();
  for (std::size_t r = 0; r < receivers; ++r) {
    offsets[r] = static_cast<std::uint32_t>(words.size());
    for (std::uint32_t k = row_begin[r]; k < row_begin[r + 1]; ++k) {
      const NodeId t = tx[k];
      if (words.size() == offsets[r] || words.back().word != t / 64) {
        words.push_back({t / 64, k, 0});
      }
      words.back().bits |= std::uint64_t{1} << (t % 64);
    }
  }
  offsets[receivers] = static_cast<std::uint32_t>(words.size());
}

/// Lazily built good-link BFS rows. Forward rows answer hops_from(src);
/// reverse rows answer hops(*, dst) for a hot target (e.g. "hops to the
/// center" across the whole network). A deque never moves the rows it
/// owns, so handed-out row pointers stay valid.
struct Topology::HopCache {
  explicit HopCache(std::size_t n) : fwd(n, nullptr), rev(n, nullptr) {}
  std::mutex mu;  // guards every member below
  std::vector<const std::uint32_t*> fwd;
  std::vector<const std::uint32_t*> rev;
  std::deque<std::vector<std::uint32_t>> rows;
};

Topology::Topology(Topology&&) noexcept = default;
Topology& Topology::operator=(Topology&&) noexcept = default;
Topology::~Topology() = default;

Topology::Topology(std::vector<Position> positions, RadioParams radio,
                   std::uint64_t shadow_seed,
                   std::vector<double> rx_noise_penalty_db,
                   TopologyOptions options)
    : positions_(std::move(positions)),
      radio_(radio),
      rx_penalty_(std::move(rx_noise_penalty_db)) {
  MPCIOT_REQUIRE(positions_.size() >= 2, "Topology: need at least 2 nodes");
  MPCIOT_REQUIRE(rx_penalty_.empty() || rx_penalty_.size() == positions_.size(),
                 "Topology: one rx noise penalty per node (or none)");
  if (rx_penalty_.empty()) rx_penalty_.assign(positions_.size(), 0.0);
  global_ids_.resize(positions_.size());
  for (NodeId i = 0; i < positions_.size(); ++i) global_ids_[i] = i;

  const bool sequential =
      options.draw == LinkDraw::kSequential ||
      (options.draw == LinkDraw::kAuto && positions_.size() <= kExactMaxNodes);
  build(sequential ? draw_sequential(shadow_seed) : draw_keyed(shadow_seed));
}

Topology Topology::induced(const Topology& parent,
                           const std::vector<NodeId>& members) {
  const std::size_t m = members.size();
  MPCIOT_REQUIRE(m >= 2, "Topology::induced: need at least 2 members");
  for (std::size_t i = 0; i < m; ++i) {
    MPCIOT_REQUIRE(members[i] < parent.size(),
                   "Topology::induced: member id out of range");
    MPCIOT_REQUIRE(i == 0 || members[i - 1] < members[i],
                   "Topology::induced: members must be ascending and unique");
  }

  Topology sub;
  sub.radio_ = parent.radio_;
  sub.positions_.reserve(m);
  sub.rx_penalty_.reserve(m);
  for (const NodeId p : members) {
    sub.positions_.push_back(parent.positions_[p]);
    sub.rx_penalty_.push_back(parent.rx_penalty_[p]);
    sub.global_ids_.push_back(parent.global_ids_[p]);
  }

  // Walk only the parent's stored links and near pairs that stay inside
  // the member set — O(members + links), never O(parent^2).
  std::vector<NodeId> local_of(parent.size(), kInvalidNode);
  for (std::size_t i = 0; i < m; ++i) {
    local_of[members[i]] = static_cast<NodeId>(i);
  }
  Draws draws;
  for (NodeId a = 0; a < m; ++a) {
    const NodeId pa = members[a];
    for (std::uint32_t i = parent.csr_offsets_[pa];
         i < parent.csr_offsets_[pa + 1]; ++i) {
      const NodeId lb = local_of[parent.csr_neighbors_[i]];
      if (lb == kInvalidNode) continue;
      draws.links.push_back({a, lb, parent.out_prr_[i],
                             parent.rssi(pa, parent.csr_neighbors_[i])});
    }
    for (std::uint32_t i = parent.near_offsets_[pa];
         i < parent.near_offsets_[pa + 1]; ++i) {
      const NodeId lb = local_of[parent.near_ids_[i]];
      if (lb != kInvalidNode && lb > a) {
        draws.near.push_back({a, lb, parent.near_rssi_[i]});
      }
    }
  }
  sub.build(std::move(draws));
  return sub;
}

double Topology::prr_at(NodeId a, NodeId b, SimTime t,
                        const ChannelModel* model) const {
  if (model == nullptr) return prr(a, b);
  ChannelView view;
  view.bind(*this, model);
  view.seek(t);
  return view.prr(a, b);
}

double Topology::distance(NodeId a, NodeId b) const {
  const double dx = positions_[a].x - positions_[b].x;
  const double dy = positions_[a].y - positions_[b].y;
  return std::sqrt(dx * dx + dy * dy);
}

double Topology::rssi(NodeId a, NodeId b) const {
  const auto partners = near(a);
  const auto it = std::lower_bound(partners.begin(), partners.end(), b);
  if (it == partners.end() || *it != b) return -200.0;
  return near_rssi_[near_offsets_[a] +
                    static_cast<std::size_t>(it - partners.begin())];
}

double Topology::prr(NodeId a, NodeId b) const {
  const std::size_t i = link_index(a, b);
  return i == kNoSlot ? 0.0 : out_prr_[i];
}

std::size_t Topology::link_index(NodeId a, NodeId b) const {
  const NodeId* begin = csr_neighbors_.data() + csr_offsets_[a];
  const NodeId* end = csr_neighbors_.data() + csr_offsets_[a + 1];
  const NodeId* it = std::lower_bound(begin, end, b);
  if (it == end || *it != b) return kNoSlot;
  return static_cast<std::size_t>(it - csr_neighbors_.data());
}

void Topology::record_pair(NodeId a, NodeId b, double u1, double u2,
                           bool storable, Draws& out) const {
  // Box-Muller for the lognormal shadowing term, frozen per link.
  const double gauss =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  const double shadow = gauss * radio_.shadowing_sigma_db;
  const double power = radio_.rx_power_dbm(distance(a, b), shadow);
  // PRR is directional when the receiving end sits in local noise.
  const auto clears = [&](double rx_dbm, NodeId rx) {
    return radio_.prr_from_rssi(rx_dbm - rx_penalty_[rx]) >=
           radio_.link_floor_prr;
  };
  double p_ab = radio_.prr_from_rssi(power - rx_penalty_[b]);  // a -> b
  double p_ba = radio_.prr_from_rssi(power - rx_penalty_[a]);  // b -> a
  if (p_ab < radio_.link_floor_prr) p_ab = 0.0;
  if (p_ba < radio_.link_floor_prr) p_ba = 0.0;
  if (storable && p_ab > 0.0) out.links.push_back({a, b, p_ab, power});
  if (storable && p_ba > 0.0) out.links.push_back({b, a, p_ba, power});
  // Stored links are near by construction; other pairs are near when
  // the headroom lifts them over the floor.
  if (p_ab > 0.0 || p_ba > 0.0 || clears(power + kNearHeadroomDb, b) ||
      clears(power + kNearHeadroomDb, a)) {
    out.near.push_back({a, b, power});
  }
}

Topology::Draws Topology::draw_sequential(std::uint64_t shadow_seed) const {
  // One stream, every pair drawn in (a, b) order: O(n^2) time, O(near
  // pairs) memory — the historic stream every scenario topology uses.
  const std::size_t n = positions_.size();
  crypto::Xoshiro256 rng(shadow_seed);
  Draws draws;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const double u1 = std::max(rng.next_double(), 1e-12);
      const double u2 = rng.next_double();
      record_pair(a, b, u1, u2, /*storable=*/true, draws);
    }
  }
  return draws;
}

Topology::Draws Topology::draw_keyed(std::uint64_t shadow_seed) const {
  const std::size_t n = positions_.size();

  // Cull radii: beyond store_m even a +kCullSigmas shadowing draw cannot
  // lift received power to the PRR floor (receiver noise penalties only
  // push links further down), so the pair never produces a stored link;
  // beyond near_m it cannot reach near either, and is skipped without
  // drawing. Pairs in between are drawn for their RSSI only, which keeps
  // the stored links exactly those of a store_m-culled draw.
  double span_x = 0.0, span_y = 0.0, min_x = 0.0, min_y = 0.0;
  {
    double max_x = positions_[0].x, max_y = positions_[0].y;
    min_x = positions_[0].x;
    min_y = positions_[0].y;
    for (const Position& p : positions_) {
      min_x = std::min(min_x, p.x);
      min_y = std::min(min_y, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    span_x = max_x - min_x;
    span_y = max_y - min_y;
  }
  const double diagonal = std::sqrt(span_x * span_x + span_y * span_y);
  double store_m = diagonal + 1.0;  // no cull unless the floor gives one
  double near_m = store_m;
  if (radio_.link_floor_prr > 0.0 && radio_.link_floor_prr < 1.0) {
    const double rssi_floor =
        radio_.prr_mid_dbm +
        radio_.prr_width_db *
            std::log(radio_.link_floor_prr / (1.0 - radio_.link_floor_prr));
    const double budget = radio_.tx_power_dbm - radio_.path_loss_at_1m_db +
                          kCullSigmas * radio_.shadowing_sigma_db - rssi_floor;
    const auto radius = [&](double budget_db) {
      return std::clamp(
          std::pow(10.0, budget_db / (10.0 * radio_.path_loss_exponent)), 1.0,
          diagonal + 1.0);
    };
    store_m = radius(budget);
    near_m = radius(budget + kNearHeadroomDb);
  }

  // Spatial hash with cell size == near radius: candidates for node a
  // live in the 3x3 cell block around it.
  const double cell = near_m;
  auto cell_key =
      [&](const Position& p) -> std::pair<std::int64_t, std::int64_t> {
    return {static_cast<std::int64_t>(std::floor((p.x - min_x) / cell)),
            static_cast<std::int64_t>(std::floor((p.y - min_y) / cell))};
  };
  std::unordered_map<std::uint64_t, std::vector<NodeId>> buckets;
  buckets.reserve(n / 4 + 1);
  auto bucket_of = [&](std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(cx) << 32) ^
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  };
  for (NodeId i = 0; i < n; ++i) {
    const auto [cx, cy] = cell_key(positions_[i]);
    buckets[bucket_of(cx, cy)].push_back(i);
  }

  Draws draws;
  for (NodeId a = 0; a < n; ++a) {
    const auto [cx, cy] = cell_key(positions_[a]);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = buckets.find(bucket_of(cx + dx, cy + dy));
        if (it == buckets.end()) continue;
        for (const NodeId b : it->second) {
          if (b <= a) continue;  // each unordered pair exactly once
          const double d = distance(a, b);
          if (d > near_m) continue;
          // Independent stream per *global* pair id: the draw depends
          // only on the physical pair, not on enumeration order or on
          // which slice of the deployment is being built.
          const std::uint64_t lo = std::min(global_ids_[a], global_ids_[b]);
          const std::uint64_t hi = std::max(global_ids_[a], global_ids_[b]);
          crypto::Xoshiro256 rng(crypto::derive_seed(
              shadow_seed, kStreamLinkShadow, (lo << 32) | hi));
          const double u1 = std::max(rng.next_double(), 1e-12);
          const double u2 = rng.next_double();
          record_pair(a, b, u1, u2, /*storable=*/d <= store_m, draws);
        }
      }
    }
  }
  return draws;
}

void Topology::build(Draws draws) {
  const std::size_t n = positions_.size();
  std::vector<Link>& links = draws.links;
  std::sort(links.begin(), links.end(), [](const Link& x, const Link& y) {
    return x.tx != y.tx ? x.tx < y.tx : x.rx < y.rx;
  });

  // Outbound CSR with aligned PRR payloads.
  const std::size_t e = links.size();
  csr_offsets_.assign(n + 1, 0);
  csr_neighbors_.resize(e);
  out_prr_.resize(e);
  for (std::size_t i = 0; i < e; ++i) {
    ++csr_offsets_[links[i].tx + 1];
    csr_neighbors_[i] = links[i].rx;
    out_prr_[i] = links[i].prr;
  }
  for (std::size_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
  // Inbound runs: the (tx, rx)-sorted links list each receiver's
  // transmitters ascending — the order CT arbitration multiplies its
  // loss chain in.
  aud_.assign(n, links);

  // Near pairs in both directions. Walking the (a, b)-sorted pairs fills
  // node r's row with its partners below r (ascending a) before those
  // above (ascending b), so every row comes out ascending.
  std::vector<NearRecord>& near_pairs = draws.near;
  std::sort(near_pairs.begin(), near_pairs.end(),
            [](const NearRecord& x, const NearRecord& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  near_offsets_.assign(n + 1, 0);
  for (const NearRecord& p : near_pairs) {
    ++near_offsets_[p.a + 1];
    ++near_offsets_[p.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) near_offsets_[i + 1] += near_offsets_[i];
  near_ids_.resize(near_offsets_[n]);
  near_rssi_.resize(near_offsets_[n]);
  {
    std::vector<std::uint32_t> cursor(near_offsets_.begin(),
                                      near_offsets_.end() - 1);
    for (const NearRecord& p : near_pairs) {
      near_ids_[cursor[p.a]] = p.b;
      near_rssi_[cursor[p.a]++] = p.rssi;
      near_ids_[cursor[p.b]] = p.a;
      near_rssi_[cursor[p.b]++] = p.rssi;
    }
  }

  // Connectivity over usable links must hold.
  {
    std::vector<bool> reachable(n, false);
    std::deque<NodeId> queue{0};
    reachable[0] = true;
    std::size_t count = 1;
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (NodeId nb : neighbors(cur)) {
        if (!reachable[nb]) {
          reachable[nb] = true;
          ++count;
          queue.push_back(nb);
        }
      }
    }
    MPCIOT_REQUIRE(count == n, "Topology: network is partitioned");
  }

  hop_cache_ = std::make_unique<HopCache>(n);
  center_and_diameter();
}

void Topology::bfs_row(NodeId start, bool reverse,
                       std::vector<std::uint32_t>& dist,
                       std::vector<NodeId>& queue) const {
  const std::size_t n = positions_.size();
  dist.assign(n, kInvalidHops);
  dist[start] = 0;
  queue.clear();
  queue.push_back(start);
  std::size_t head = 0;
  while (head < queue.size()) {
    const NodeId cur = queue[head++];
    const std::uint32_t next = dist[cur] + 1;
    if (!reverse) {
      for (std::uint32_t i = csr_offsets_[cur]; i < csr_offsets_[cur + 1];
           ++i) {
        if (out_prr_[i] < 0.5) continue;
        const NodeId nb = csr_neighbors_[i];
        if (dist[nb] != kInvalidHops) continue;
        dist[nb] = next;
        queue.push_back(nb);
      }
    } else {
      // In-edges of cur: decode the audibility word runs, reading each
      // transmitter's inbound PRR by rank within its word.
      for (const AudWord& e : audible_entries(cur)) {
        std::uint64_t bits = e.bits;
        std::uint32_t rank = 0;
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          bits &= bits - 1;
          const NodeId t = e.word * 64 + static_cast<std::uint32_t>(b);
          const double p = aud_.prr[e.slot + rank];
          ++rank;
          if (p < 0.5 || dist[t] != kInvalidHops) continue;
          dist[t] = next;
          queue.push_back(t);
        }
      }
    }
  }
}

void Topology::center_and_diameter() {
  const std::size_t n = positions_.size();
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  diameter_ = 0;
  center_ = 0;

  if (n <= kExactMaxNodes) {
    // Exact eccentricities (n BFS runs); strict improvement keeps the
    // lowest node id on ties.
    std::uint32_t best_ecc = kInvalidHops;
    for (NodeId a = 0; a < n; ++a) {
      bfs_row(a, /*reverse=*/false, dist, queue);
      std::uint32_t ecc = 0;
      for (NodeId b = 0; b < n; ++b) {
        const std::uint32_t h = dist[b];
        if (h != kInvalidHops && h > ecc) ecc = h;
        if (h != kInvalidHops && h > diameter_) diameter_ = h;
      }
      if (ecc < best_ecc) {
        best_ecc = ecc;
        center_ = a;
      }
    }
    return;
  }

  // Double sweep: BFS from node 0 finds a far pole u; BFS from u finds
  // the opposite pole w and a diameter lower bound; the center estimate
  // minimizes the worse of the two pole distances. Exact on trees and
  // close on geometric graphs — consumers scale NTX/slot budgets with
  // it, they do not rely on exactness.
  auto farthest = [&](const std::vector<std::uint32_t>& d) {
    NodeId best = 0;
    std::uint32_t best_h = 0;
    for (NodeId i = 0; i < n; ++i) {
      if (d[i] != kInvalidHops && d[i] > best_h) {
        best_h = d[i];
        best = i;
      }
    }
    return std::pair<NodeId, std::uint32_t>{best, best_h};
  };

  bfs_row(0, false, dist, queue);
  const auto [u, h0] = farthest(dist);
  std::vector<std::uint32_t> du;
  bfs_row(u, false, du, queue);
  const auto [w, h1] = farthest(du);
  bfs_row(w, false, dist, queue);  // dist == dw from here on
  const auto [w2, h2] = farthest(dist);
  (void)w2;
  diameter_ = std::max({h0, h1, h2});

  std::uint32_t best_ecc = kInvalidHops;
  for (NodeId x = 0; x < n; ++x) {
    const std::uint32_t a = du[x] == kInvalidHops ? 0 : du[x];
    const std::uint32_t b = dist[x] == kInvalidHops ? 0 : dist[x];
    const std::uint32_t ecc = std::max(a, b);
    if (ecc < best_ecc) {
      best_ecc = ecc;
      center_ = x;
    }
  }
}

const std::uint32_t* Topology::hop_row(NodeId node, bool reverse) const {
  // Caller holds hop_cache_->mu.
  HopCache& cache = *hop_cache_;
  const std::uint32_t*& row = (reverse ? cache.rev : cache.fwd)[node];
  if (row == nullptr) {
    std::vector<NodeId> queue;
    bfs_row(node, reverse, cache.rows.emplace_back(), queue);
    row = cache.rows.back().data();
  }
  return row;
}

const std::uint32_t* Topology::hops_from(NodeId src) const {
  std::lock_guard<std::mutex> lock(hop_cache_->mu);
  return hop_row(src, /*reverse=*/false);
}

std::uint32_t Topology::hops(NodeId a, NodeId b) const {
  std::lock_guard<std::mutex> lock(hop_cache_->mu);
  if (const std::uint32_t* row = hop_cache_->fwd[a]) return row[b];
  // The common pattern is many sources asking about one hot target (the
  // network center), so one reverse BFS answers them all.
  return hop_row(b, /*reverse=*/true)[a];
}

}  // namespace mpciot::net
