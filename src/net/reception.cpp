#include "net/reception.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace mpciot::net {

ReceptionOutcome ReceptionModel::arbitrate(
    NodeId receiver, const std::vector<Transmission>& transmitters,
    crypto::Xoshiro256& rng, const ChannelView* view) const {
  ReceptionOutcome out;
  if (transmitters.empty()) return out;

  // The receiver's inbound links, read once per call: its audibility
  // runs (the view's at the current epoch, else the frozen topology's)
  // list transmitters in ascending order, as `transmitters` does, so one
  // forward cursor replaces a search per transmitter.
  const std::span<const AudWord> runs =
      view != nullptr ? view->audible_entries(receiver)
                      : topo_->audible_entries(receiver);
  const double* in_prr =
      view != nullptr ? view->in_prr() : topo_->audibility().prr.data();
  const double* in_rssi =
      view != nullptr ? view->in_rssi() : topo_->audibility().rssi.data();
  std::size_t run = 0;

  // Partition audible transmitters (link exists) and check payload
  // homogeneity.
  double best_prr = 0.0;
  NodeId best_sender = kInvalidNode;
  double best_rssi = -300.0;
  double power_sum_mw = 0.0;
  bool homogeneous = true;
  const std::uint64_t first_content = transmitters.front().content_id;
  std::size_t audible = 0;
  double fail_product = 1.0;

  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    const Transmission& t = transmitters[i];
    MPCIOT_DCHECK(t.sender != receiver,
                  "reception: half-duplex node cannot receive own slot");
    MPCIOT_DCHECK(i == 0 || transmitters[i - 1].sender < t.sender,
                  "reception: transmitters must ascend by sender");
    if (t.content_id != first_content) homogeneous = false;
    const std::uint32_t w = t.sender / 64;
    while (run < runs.size() && runs[run].word < w) ++run;
    if (run == runs.size() || runs[run].word != w) continue;
    const std::uint64_t bit = std::uint64_t{1} << (t.sender % 64);
    if ((runs[run].bits & bit) == 0) continue;
    const std::size_t slot =
        runs[run].slot +
        static_cast<std::size_t>(std::popcount(runs[run].bits & (bit - 1)));
    const double p = in_prr[slot];
    const double rssi = in_rssi[slot];
    ++audible;
    power_sum_mw += std::pow(10.0, rssi / 10.0);
    fail_product *= (1.0 - p);
    if (rssi > best_rssi) {
      best_rssi = rssi;
      best_prr = p;
      best_sender = t.sender;
    }
  }
  if (audible == 0) return out;

  const RadioParams& radio = topo_->radio();
  double success_prob;
  if (audible == 1) {
    success_prob = best_prr;
  } else if (homogeneous) {
    // Constructive interference: all copies must fail for the slot to
    // fail; correlation > 1 degrades towards the single-best case.
    const double independent_fail = fail_product;
    const double correlated_fail =
        std::pow(independent_fail, 1.0 / radio.ct_loss_correlation);
    success_prob = 1.0 - correlated_fail;
  } else {
    // Capture: strongest must dominate the power sum of the others.
    const double others_mw =
        std::max(power_sum_mw - std::pow(10.0, best_rssi / 10.0), 1e-30);
    const double sir_db = best_rssi - 10.0 * std::log10(others_mw);
    if (sir_db < radio.capture_threshold_db) return out;
    success_prob = best_prr;
  }

  if (rng.next_bool(success_prob)) {
    out.received = true;
    out.from = best_sender;
    out.content_id = homogeneous ? first_content
                                 : /* captured strongest */ [&] {
                                     for (const Transmission& t : transmitters) {
                                       if (t.sender == best_sender)
                                         return t.content_id;
                                     }
                                     return first_content;
                                   }();
  }
  return out;
}

}  // namespace mpciot::net
