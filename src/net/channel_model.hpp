// Time-varying channel and membership seams for the network layer.
//
// The frozen link tables a `Topology` draws at construction are the
// degenerate *static* channel: every PRR holds for the whole experiment.
// Real testbed links burst and drift, and real nodes crash and recover
// mid-round. Two small interfaces let the engines consume both without
// binding the net layer to any particular model:
//
//  * `ChannelModel` — a deterministic epoch-indexed rewrite of the link
//    tables. Concrete models (e.g. the Gilbert–Elliott engine in
//    sim::dynamics) advance per-link state epoch by epoch; a null model
//    means "the frozen snapshot, forever".
//  * `LivenessModel` — a node-level crash/recover schedule queried at a
//    simulated time. A down node's radio is silent: it neither transmits
//    nor receives, and is charged no radio-on time while down.
//
// Model instances are const and thread-safe; all evolving state lives in
// a `ChannelView`, the cursor the CT hot path reads. The view keeps one
// walked epoch chain per topology it has been bound to under a model,
// caches the current epoch's materialized tables (per-receiver
// audibility word runs + inbound PRRs, Topology's layout) and
// re-materializes only when the epoch advances, so the arbitration loop
// reads one form whether or not a model is bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/topology.hpp"

namespace mpciot::net {

/// Materialized link tables for one dynamics epoch, plus the opaque
/// model state the epoch chain is walked with. Owned by a ChannelView
/// (one per topology the view was bound to under a model), never by the
/// shared model instance.
struct LinkEpochTables {
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  /// Epoch the tables currently describe; kNoEpoch before the first
  /// materialization.
  std::uint64_t epoch = kNoEpoch;
  /// Inbound links at this epoch in Topology::audibility()'s layout: the
  /// runs list exactly the transmitters with PRR > 0 at this epoch.
  AudRuns runs;
  /// Model scratch (e.g. per-link burst state / drift / stream keys):
  /// layout is the model's business, persistence across epochs is the
  /// view's.
  std::vector<std::uint64_t> state_bits;
  std::vector<std::uint64_t> state_keys;
  std::vector<double> state_reals;
};

/// Deterministic time-varying channel: link tables indexed by epoch.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Dynamics advance granularity (> 0). Time t falls in epoch
  /// t / epoch_us(); negative times clamp to epoch 0.
  virtual SimTime epoch_us() const = 0;

  /// Fill `tables` for `epoch` over `topo`'s link set. Called with
  /// non-decreasing epochs on any given tables instance (an epoch may be
  /// filled again, e.g. by a new decorator object); the model may
  /// keep chain state in tables.state_* and must produce the same
  /// tables for the same (topo, epoch) regardless of which epochs were
  /// materialized before (callers rely on this for jobs-invariance).
  virtual void materialize(const Topology& topo, std::uint64_t epoch,
                           LinkEpochTables& tables) const = 0;
};

/// Node crash/recover schedule. Deterministic and thread-safe.
class LivenessModel {
 public:
  virtual ~LivenessModel() = default;

  /// True while `node`'s radio is dead at simulated time `t`.
  virtual bool is_down(NodeId node, SimTime t) const = 0;
};

/// Cursor over the (possibly time-varying) channel. Bind it to a
/// topology + model, seek() it forward as the round's clock advances,
/// and read the same row accessors the static Topology exposes. With a
/// null model every accessor aliases the topology's frozen tables —
/// zero copies.
///
/// A view keeps one epoch walk per topology it has been bound to under
/// a model, so a trial whose rounds alternate between topologies (a
/// hierarchical round's group rounds and parent-level floods, sharing
/// one RoundContext) walks each topology's chain once, not once per
/// rebinding. Walks are matched by topology address, so a topology
/// bound under a model must outlive the view. Protocol workspaces meet
/// this: they belong to a Session, and the protocol and its topologies
/// outlive the session. Memory is one LinkEpochTables per topology
/// bound under a model.
class ChannelView {
 public:
  ChannelView() = default;

  /// (Re)bind to a topology and model. Binding a topology back under
  /// the model its walk was last bound with continues that walk from
  /// where it stopped; binding it under a different model restarts it
  /// (models are matched by address too, so a model object rebuilt at
  /// the same address must walk the same chain — a decorator that keeps
  /// its chain state in the model it wraps does). A static (null-model)
  /// binding aliases the topology's frozen tables and stores nothing.
  void bind(const Topology& topo, const ChannelModel* model);

  /// Advance to the epoch containing time `t`, re-materializing the
  /// cached tables when the epoch changed. Forward seeks continue the
  /// epoch walk; a backwards seek (legal right after a rebind, e.g. a
  /// round booked earlier on a less-loaded channel) restarts the walk
  /// from epoch 0 — identical tables, re-walk cost only, since epoch
  /// state is a pure function of (model seed, epoch, link).
  void seek(SimTime t);

  bool dynamic() const { return model_ != nullptr; }

  /// Receiver r's audibility word runs at the current epoch (see
  /// Topology::audible_entries).
  std::span<const AudWord> audible_entries(NodeId r) const {
    return {words_ + offsets_[r], words_ + offsets_[r + 1]};
  }
  /// Inbound PRRs at the current epoch and the links' frozen RSSI,
  /// indexed by the runs' slots.
  const double* in_prr() const { return in_prr_; }
  const double* in_rssi() const { return in_rssi_; }
  /// PRR a -> b at the current epoch.
  double prr(NodeId a, NodeId b) const {
    const std::size_t s = runs_->slot(b, a);
    return s == kNoSlot ? 0.0 : in_prr_[s];
  }

 private:
  /// One topology's epoch walk under the model it was last bound with.
  struct Walk {
    const Topology* topo = nullptr;
    const ChannelModel* model = nullptr;
    LinkEpochTables tables;
  };

  /// Point the row accessors at `runs`.
  void point_at(const AudRuns& runs);

  const Topology* topo_ = nullptr;
  const ChannelModel* model_ = nullptr;
  std::vector<Walk> walks_;
  static constexpr std::size_t kNoWalk = ~std::size_t{0};
  /// Index into walks_ of the current binding (dynamic bindings only).
  std::size_t walk_ = 0;
  /// The next seek re-materializes even at the walk's current epoch.
  bool refresh_ = false;
  const AudRuns* runs_ = nullptr;
  const std::uint32_t* offsets_ = nullptr;
  const AudWord* words_ = nullptr;
  const double* in_prr_ = nullptr;
  const double* in_rssi_ = nullptr;
};

}  // namespace mpciot::net
