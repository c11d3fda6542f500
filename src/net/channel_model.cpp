#include "net/channel_model.hpp"

#include "common/assert.hpp"
#include "net/topology.hpp"

namespace mpciot::net {

namespace {

/// Forget a walk's chain state (table capacity is kept).
void reset_walk(LinkEpochTables& tables) {
  tables.epoch = LinkEpochTables::kNoEpoch;
  tables.state_bits.clear();
  tables.state_keys.clear();
  tables.state_reals.clear();
}

}  // namespace

void ChannelView::bind(const Topology& topo, const ChannelModel* model) {
  // The walk of the binding just before this one, if it was dynamic.
  const std::size_t previous = model_ != nullptr ? walk_ : kNoWalk;
  topo_ = &topo;
  model_ = model;
  if (model_ == nullptr) {
    // Static channel: alias the frozen tables, nothing ever re-fills.
    point_at(topo.audibility());
    return;
  }
  MPCIOT_REQUIRE(model_->epoch_us() > 0,
                 "ChannelView: model epoch must be positive");
  // Each topology keeps its own walk: a trial is a sequence of rounds
  // with (mostly) increasing start times, so the next round on this
  // topology usually continues the walk instead of replaying it from
  // epoch 0, however many other topologies were bound in between. (A
  // backwards seek restarts the walk — see seek().) The list stays as
  // short as the set of topologies the owning protocol runs on, so a
  // linear scan is the lookup.
  walk_ = 0;
  while (walk_ < walks_.size() && walks_[walk_].topo != &topo) ++walk_;
  if (walk_ == walks_.size()) walks_.push_back(Walk{&topo, model, {}});
  Walk& w = walks_[walk_];
  if (w.model != model) {
    w.model = model;
    reset_walk(w.tables);
  }
  if (w.tables.epoch == LinkEpochTables::kNoEpoch) {
    seek(0);
    return;
  }
  // Walked state: leave the cursor where it is — the round's first
  // seek() continues (or, if earlier, restarts) the walk. Coming back to
  // this topology after other bindings, the model at this address may be
  // a new object over the same chain (protocols rebuild JammerChannel
  // decorators every round; the chain state lives in the model they
  // wrap), so that first seek re-materializes even at the walk's epoch.
  refresh_ = previous != walk_;
  point_at(w.tables.runs);
}

void ChannelView::seek(SimTime t) {
  if (model_ == nullptr) return;
  LinkEpochTables& tables = walks_[walk_].tables;
  const std::uint64_t epoch =
      t <= 0 ? 0 : static_cast<std::uint64_t>(t / model_->epoch_us());
  if (tables.epoch != LinkEpochTables::kNoEpoch) {
    if (epoch == tables.epoch && !refresh_) return;
    // Backwards seek (a later-bound round that starts earlier, e.g. a
    // group on a less-loaded channel): restart the walk from scratch.
    // Epoch state is a pure function of (seed, epoch, link), so this
    // reproduces the exact same tables — it only costs the re-walk.
    if (epoch < tables.epoch) reset_walk(tables);
  }
  model_->materialize(*topo_, epoch, tables);
  tables.epoch = epoch;
  refresh_ = false;
  point_at(tables.runs);
}

void ChannelView::point_at(const AudRuns& runs) {
  runs_ = &runs;
  offsets_ = runs.offsets.data();
  words_ = runs.words.data();
  in_prr_ = runs.prr.data();
  in_rssi_ = runs.rssi.data();
}

}  // namespace mpciot::net
