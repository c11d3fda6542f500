// Network topology: node positions plus the derived static link tables
// (RSSI with frozen shadowing, static PRR, connectivity graph, hop
// distances).
//
// The shadowing term is frozen per link at construction — the same
// assumption testbed people make when they speak of "the" PRR of a link —
// while fast fading is redrawn per packet by the reception model.
//
// One storage form serves every size, from the 26-node testbeds to
// 262k-node trees (see docs/ARCHITECTURE.md "Memory model & scaling"):
// only links with non-zero PRR are stored — CSR outbound adjacency with
// per-link PRR, per-receiver audibility word runs (AudRuns: 64-bit words
// indexing each inbound link's PRR and RSSI) — and hop distances come
// from lazy BFS rows (forward and reverse, cached per queried endpoint).
// Frozen RSSI is also kept for the *near* pairs: those whose PRR would
// clear the floor with kNearHeadroomDb more signal, i.e. every pair a
// bounded channel model can ever make audible. Memory is O(n + near
// pairs).
//
// Link draws: the historic *sequential* stream draws one Box–Muller
// shadowing value per (a < b) pair in order (exact O(n^2) work), and the
// *keyed* generator derives an independent stream per pair from the
// pair's global ids and skips pairs beyond a conservative cull radius
// (the distance at which even a +5 sigma shadowing draw cannot lift the
// pair to near) — O(n) with a spatial hash, which is what makes
// 10^5..10^6-node topologies constructible at all.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/radio_model.hpp"

namespace mpciot::net {

class ChannelModel;

struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// Shadowing-draw generator selection (kAuto: sequential up to
/// kExactMaxNodes — the historic stream — keyed-and-culled above).
enum class LinkDraw : std::uint8_t { kAuto, kSequential, kKeyed };

struct TopologyOptions {
  LinkDraw draw = LinkDraw::kAuto;
};

/// One 64-transmitter word of a receiver's inbound audibility row. Bit b
/// of `bits` set means transmitter word*64+b is audible; its link sits at
/// slot + popcount(bits & ((1 << b) - 1)) of the PRR and RSSI arrays.
/// Scanning a receiver's runs in order visits transmitters in ascending
/// id order, so CT arbitration multiplies its loss chain in one fixed
/// order.
struct AudWord {
  std::uint32_t word = 0;
  std::uint32_t slot = 0;
  std::uint64_t bits = 0;
};

/// What slot lookups answer for a transmitter the row does not list.
inline constexpr std::size_t kNoSlot = ~std::size_t{0};

/// One directed link tx -> rx: its PRR and the pair's frozen RSSI.
struct Link {
  NodeId tx = 0;
  NodeId rx = 0;
  double prr = 0.0;
  double rssi = 0.0;
};

/// Inbound links of every receiver in word-run form: receiver r's runs
/// are words[offsets[r] .. offsets[r + 1]), ascending by word, and list
/// exactly the transmitters r hears with PRR > 0. Each link's PRR and
/// RSSI sit at its slot, receiver-major.
struct AudRuns {
  std::vector<std::uint32_t> offsets;
  std::vector<AudWord> words;
  std::vector<double> prr;
  std::vector<double> rssi;

  std::span<const AudWord> row(NodeId r) const {
    return {words.data() + offsets[r], words.data() + offsets[r + 1]};
  }

  /// Slot of transmitter t in receiver r's row, or kNoSlot.
  std::size_t slot(NodeId r, NodeId t) const;

  /// Rebuild the rows of `receivers` nodes from `links` (PRR > 0), in
  /// which each receiver's transmitters ascend.
  void assign(std::size_t receivers, std::span<const Link> links);
};

class Topology {
 public:
  /// Up to this node count links come from the historic sequential
  /// shadowing stream and the center and diameter are exact (one BFS
  /// per node). Above it, keyed-and-culled draws and a double-sweep
  /// estimate keep construction near O(n + links). Every testbed and
  /// scenario topology up to 1024 nodes sits below it.
  static constexpr std::size_t kExactMaxNodes = 2048;

  /// Keyed-draw cull bound: pairs whose deterministic path loss cannot
  /// reach near even with a +kCullSigmas shadowing draw are never drawn.
  /// P(gauss > 5 sigma) ~ 3e-7 per pair — a handful of the weakest
  /// possible fringe links across millions of pairs.
  static constexpr double kCullSigmas = 5.0;

  /// Near-pair headroom (dB): a pair keeps its frozen RSSI iff its PRR
  /// clears link_floor_prr in some direction at rssi + kNearHeadroomDb.
  /// A channel model that lifts a link by at most this much can only
  /// make near pairs audible (sim::dynamics::LinkDynamics requires its
  /// drift bound to fit).
  static constexpr double kNearHeadroomDb = 5.0;

  /// Build a topology from node positions. `shadow_seed` freezes the
  /// per-link shadowing draw. Postcondition: the PRR graph (links with
  /// prr >= link_floor_prr) is connected — throws otherwise, because a
  /// partitioned testbed cannot run any of the protocols.
  ///
  /// `rx_noise_penalty_db` (optional, one entry per node) models nodes
  /// deployed in RF-noisy spots: their *receiver* sees the channel
  /// `penalty` dB worse while their transmissions are unaffected — link
  /// PRR becomes directional, as on real testbeds with local
  /// interference (e.g. DCube's JamLab generators).
  ///
  /// `options` selects the draw generator; the default reproduces the
  /// historic stream bit for bit up to kExactMaxNodes and switches to
  /// keyed draws above it.
  Topology(std::vector<Position> positions, RadioParams radio,
           std::uint64_t shadow_seed,
           std::vector<double> rx_noise_penalty_db = {},
           TopologyOptions options = {});

  Topology(Topology&&) noexcept;
  Topology& operator=(Topology&&) noexcept;
  ~Topology();

  /// Build the subtopology induced by `members` (ascending, unique parent
  /// node ids): node i of the result is members[i], and every link and
  /// near pair keeps the parent's frozen RSSI/PRR — the same radios,
  /// restricted to in-group traffic (e.g. one group of a hierarchical
  /// round on its own channel). Derived tables (adjacency, audibility,
  /// center) are rebuilt for the subgraph in O(members + links). Throws
  /// like the main constructor when the induced usable-link graph is not
  /// connected.
  static Topology induced(const Topology& parent,
                          const std::vector<NodeId>& members);

  std::size_t size() const { return positions_.size(); }
  const RadioParams& radio() const { return radio_; }
  const Position& position(NodeId n) const { return positions_[n]; }

  double distance(NodeId a, NodeId b) const;

  /// Frozen received power on a -> b (symmetric shadowing) for near
  /// pairs; -200 dBm for every other pair and for a == b.
  double rssi(NodeId a, NodeId b) const;

  /// Static packet reception rate a -> b; 0 for a == b.
  double prr(NodeId a, NodeId b) const;

  /// Time-indexed PRR a -> b at simulated time `t` under `model`; the
  /// frozen snapshot is the degenerate static model (model == nullptr
  /// returns prr(a, b) for every t). One-shot convenience for tests and
  /// diagnostics — it walks the model's epoch chain from 0 on every
  /// call. Hot paths bind a ChannelView instead, which caches the
  /// current epoch's tables across an entire round.
  double prr_at(NodeId a, NodeId b, SimTime t,
                const ChannelModel* model = nullptr) const;

  /// Receiver-side noise penalty (dB) degrading node n's inbound links
  /// (see the constructor); 0 for quiet spots. Channel models re-apply
  /// it when they recompute PRR from drifted RSSI.
  double rx_noise_penalty_db(NodeId n) const { return rx_penalty_[n]; }

  /// Identity of node n in the *root* topology: the identity map for a
  /// directly constructed topology, the member's original id for an
  /// induced() subtopology (composed through nested inductions).
  /// Channel models key their per-link fade streams by global ids, so a
  /// group round on a subtopology sees the same physical link in the
  /// same state as a parent-level flood at the same instant.
  NodeId global_id(NodeId n) const { return global_ids_[n]; }

  bool has_link(NodeId a, NodeId b) const {
    return a != b && prr(a, b) >= radio_.link_floor_prr;
  }

  /// Neighbours with a usable outbound link (prr(n, nb) >= floor), in
  /// ascending id order.
  std::span<const NodeId> neighbors(NodeId n) const {
    return {csr_neighbors_.data() + csr_offsets_[n],
            csr_neighbors_.data() + csr_offsets_[n + 1]};
  }

  /// Words per node-indexed bitmap row (ceil(size / 64)).
  std::size_t node_words() const { return (positions_.size() + 63) / 64; }

  /// Inbound links of every receiver: transmitter t is listed in
  /// receiver r's row iff prr(t, r) > 0.
  const AudRuns& audibility() const { return aud_; }
  std::span<const AudWord> audible_entries(NodeId r) const {
    return aud_.row(r);
  }

  /// Near partners of node n (see kNearHeadroomDb), ascending, and their
  /// frozen RSSI (aligned). The relation is symmetric.
  std::span<const NodeId> near(NodeId n) const {
    return {near_ids_.data() + near_offsets_[n],
            near_ids_.data() + near_offsets_[n + 1]};
  }
  std::span<const double> near_rssi(NodeId n) const {
    return {near_rssi_.data() + near_offsets_[n],
            near_rssi_.data() + near_offsets_[n + 1]};
  }

  /// Hop distance over "good" links (prr >= 0.5); kInvalidHops if
  /// unreachable over good links. Served from lazily built BFS rows: a
  /// forward row for `a` if one exists, else a reverse row for `b`
  /// (built on first use and cached — the common pattern is many
  /// sources asking about one target, e.g. hops to the center).
  /// Thread-safe.
  static constexpr std::uint32_t kInvalidHops = 0xFFFFFFFFu;
  std::uint32_t hops(NodeId a, NodeId b) const;

  /// Row of hop distances from `src` to every node (source-major
  /// callers: partition seeding, holder election, initiator choice): a
  /// lazily built, cached forward BFS row. The pointer stays valid for
  /// the topology's lifetime; thread-safe.
  const std::uint32_t* hops_from(NodeId src) const;

  /// Network diameter in good-link hops. Above kExactMaxNodes: a
  /// double-sweep lower bound (exact on trees, within a small factor on
  /// geometric graphs) — callers use it to scale NTX and slot budgets,
  /// not for correctness.
  std::uint32_t diameter() const { return diameter_; }

  /// Node with the minimum eccentricity (typical CT initiator choice).
  /// Above kExactMaxNodes: the minimizer of max(dist to the two sweep
  /// poles) — a near-central node.
  NodeId center_node() const { return center_; }

 private:
  /// Uninitialized shell for induced(), completed by build().
  Topology() = default;

  /// One near pair (a < b) during construction.
  struct NearRecord {
    NodeId a = 0;
    NodeId b = 0;
    double rssi = 0.0;
  };
  struct Draws {
    std::vector<Link> links;
    std::vector<NearRecord> near;
  };
  struct HopCache;

  /// Record pair (a < b) drawn with Box–Muller uniforms (u1, u2): its
  /// directed links when `storable`, and the pair itself when near.
  void record_pair(NodeId a, NodeId b, double u1, double u2, bool storable,
                   Draws& out) const;
  /// Sequential stream: every pair drawn in (a, b) order from one stream.
  Draws draw_sequential(std::uint64_t shadow_seed) const;
  /// Keyed-and-culled draws: independent stream per global pair id,
  /// spatial-hash candidate enumeration within the cull radius.
  Draws draw_keyed(std::uint64_t shadow_seed) const;
  /// Build every table (CSR, audibility runs, near pairs, connectivity
  /// check, center) from construction records; shared by construction
  /// and induced().
  void build(Draws draws);

  /// Index of the directed link a -> b in the CSR payload order, or
  /// kNoSlot.
  std::size_t link_index(NodeId a, NodeId b) const;
  /// Good-link BFS (prr >= 0.5) over the stored links, forward or
  /// reverse.
  void bfs_row(NodeId start, bool reverse, std::vector<std::uint32_t>& dist,
               std::vector<NodeId>& queue) const;
  /// The cached BFS row of `node`, built on first use; the caller holds
  /// the cache's mutex.
  const std::uint32_t* hop_row(NodeId node, bool reverse) const;
  /// Exact eccentricities up to kExactMaxNodes, double sweep above.
  void center_and_diameter();

  std::vector<Position> positions_;
  RadioParams radio_;
  std::vector<double> rx_penalty_;
  std::vector<NodeId> global_ids_;

  /// CSR adjacency over stored outbound links: neighbors of node n are
  /// csr_neighbors_[csr_offsets_[n] .. csr_offsets_[n+1]), PRRs aligned.
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<NodeId> csr_neighbors_;
  std::vector<double> out_prr_;
  /// Inbound links in word-run form.
  AudRuns aud_;
  /// Near pairs, both directions: CSR over partners, RSSI aligned.
  std::vector<std::uint32_t> near_offsets_;
  std::vector<NodeId> near_ids_;
  std::vector<double> near_rssi_;
  std::unique_ptr<HopCache> hop_cache_;

  std::uint32_t diameter_ = 0;
  NodeId center_ = 0;
};

}  // namespace mpciot::net
