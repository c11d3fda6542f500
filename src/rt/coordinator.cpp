#include "rt/coordinator.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/assert.hpp"
#include "core/wire.hpp"
#include "field/fp61.hpp"

namespace mpciot::rt {

Coordinator::Coordinator(const CoordinatorConfig& config)
    : config_(config),
      plan_(plan_deployment(config.deployment_seed, config.node_count)),
      conn_of_node_(config.node_count, 0),
      crashed_(config.node_count, 0),
      reported_(config.node_count, 0) {
  MPCIOT_REQUIRE(config_.rounds >= 1 && config_.rounds <= 0xFFFF,
                 "coordinator: rounds must fit the u16 wire round");
  aggregators_.reserve(plan_.groups.size());
  for (const core::roles::RoundSpec& group : plan_.groups) {
    aggregators_.emplace_back(group);
  }
  group_final_.assign(plan_.groups.size(), 0);
  group_outcome_.resize(plan_.groups.size());
}

std::uint16_t Coordinator::bind() {
  port_ = loop_.listen_local(config_.port);
  return port_;
}

int Coordinator::run(std::ostream* progress) {
  progress_ = progress;
  MPCIOT_REQUIRE(port_ != 0, "coordinator: bind() before run()");
  campaign_start_ms_ = steady_now_ms();
  loop_.set_on_accept([this](std::uint64_t c) { on_accept(c); });
  loop_.set_on_frame(
      [this](std::uint64_t c, Frame&& f) { on_frame(c, std::move(f)); });
  loop_.set_on_close([this](std::uint64_t c) { on_close(c); });
  loop_.add_timer(config_.join_timeout_ms, [this] {
    if (state_ == State::kJoining) {
      if (progress_ != nullptr) {
        *progress_ << "coordinator: join timeout with " << joined_ << "/"
                   << config_.node_count << " nodes\n";
      }
      exit_code_ = 1;
      loop_.stop();
    }
  });
  loop_.run();
  build_report();
  return exit_code_;
}

void Coordinator::on_accept(std::uint64_t) {
  // Nothing until the Hello arrives; unknown peers can only cost one
  // connection slot and one bounded decode buffer until then.
}

void Coordinator::on_frame(std::uint64_t conn, Frame&& frame) {
  if (frame.type == FrameType::kHello) {
    const auto hello = Hello::decode(frame.payload);
    if (!hello.has_value()) {
      loop_.close_after_flush(conn);
      return;
    }
    on_hello(conn, *hello);
    return;
  }
  // Every other frame requires an identified, joined node.
  const auto it = node_of_conn_.find(conn);
  if (it == node_of_conn_.end()) {
    loop_.close_after_flush(conn);
    return;
  }
  switch (frame.type) {
    case FrameType::kShareFwd: {
      const auto msg = ShareFwd::decode(frame.payload);
      if (msg.has_value() && state_ == State::kRunning) {
        on_share_fwd(conn, *msg);
      }
      return;
    }
    case FrameType::kSumReport: {
      const auto msg = SumReport::decode(frame.payload);
      if (msg.has_value() && state_ == State::kRunning) {
        on_sum_report(conn, *msg);
      }
      return;
    }
    default:
      return;  // coordinator-only message echoed back: ignore
  }
}

void Coordinator::on_hello(std::uint64_t conn, const Hello& hello) {
  const bool stale = hello.generation != config_.generation;
  const bool bad_id = hello.node >= config_.node_count;
  const bool mismatched = hello.node_count != config_.node_count ||
                          hello.deployment_seed != config_.deployment_seed;
  const bool duplicate = !bad_id && conn_of_node_[hello.node] != 0;
  if (stale || bad_id || mismatched || duplicate) {
    ++refused_hellos_;
    Refuse refuse;
    refuse.generation = config_.generation;
    loop_.send_frame(conn, FrameType::kRefuse, refuse.encode());
    loop_.close_after_flush(conn);
    return;
  }
  conn_of_node_[hello.node] = conn;
  node_of_conn_[conn] = hello.node;
  ++joined_;
  if (state_ == State::kJoining && joined_ == config_.node_count) {
    start_campaign();
  }
}

void Coordinator::start_campaign() {
  state_ = State::kRunning;
  if (progress_ != nullptr) {
    *progress_ << "coordinator: " << joined_ << " nodes joined after "
               << steady_now_ms() - campaign_start_ms_ << " ms, "
               << plan_.groups.size() << " groups\n";
  }
  for (std::uint32_t g = 0; g < plan_.groups.size(); ++g) {
    Assign assign;
    assign.group = g;
    assign.degree = static_cast<std::uint32_t>(plan_.groups[g].degree);
    assign.sources = plan_.groups[g].sources;
    assign.holders = plan_.groups[g].holders;
    const Bytes payload = assign.encode();
    for (const NodeId node : plan_.groups[g].sources) {
      loop_.send_frame(conn_of_node_[node], FrameType::kAssign, payload);
    }
  }
  round_ = 0;
  start_round();
}

void Coordinator::start_round() {
  for (std::uint32_t g = 0; g < plan_.groups.size(); ++g) {
    aggregators_[g].reset(static_cast<std::uint16_t>(round_));
    group_final_[g] = 0;
    group_outcome_[g].reset();
  }
  reported_.assign(config_.node_count, 0);
  crashed_this_round_.clear();

  RoundStart msg;
  msg.round = static_cast<std::uint16_t>(round_);
  const Bytes payload = msg.encode();
  for (NodeId n = 0; n < config_.node_count; ++n) {
    if (conn_of_node_[n] != 0) {
      loop_.send_frame(conn_of_node_[n], FrameType::kRoundStart, payload);
    }
  }
  t1_token_ = loop_.add_timer(config_.t1_straggler_ms,
                              [this] { request_stragglers(); });
  t2_token_ =
      loop_.add_timer(config_.t2_finalize_ms, [this] { finalize_round(); });
}

void Coordinator::on_share_fwd(std::uint64_t, const ShareFwd& msg) {
  // Pure relay: the packet stays opaque ciphertext; routing uses only
  // the ShareFwd dst. Shares for crashed destinations are dropped, the
  // roles' mask bookkeeping absorbs the loss.
  if (msg.dst >= config_.node_count) return;
  const std::uint64_t dst_conn = conn_of_node_[msg.dst];
  if (dst_conn == 0) return;
  loop_.send_frame(dst_conn, FrameType::kShareFwd, msg.encode());
}

void Coordinator::on_sum_report(std::uint64_t conn, const SumReport& msg) {
  const NodeId node = node_of_conn_[conn];
  const auto pkt = core::SumPacket::decode(msg.packet);
  if (!pkt.has_value() || pkt->holder != node) return;
  const std::uint32_t group = plan_.group_of[node];
  if (group_final_[group]) return;
  if (aggregators_[group].accept(*pkt)) {
    reported_[node] = 1;
    maybe_finalize_early(group);
  }
}

void Coordinator::maybe_finalize_early(std::uint32_t group) {
  if (group_final_[group] || state_ != State::kRunning) return;
  // Fast paths that cannot change the report relative to waiting for
  // T2: (a) >= degree+1 full-mask sums — reconstruction is already at
  // maximum coverage and the value is the same for any threshold
  // subset; (b) every still-connected holder has reported — no further
  // report can arrive before T2.
  bool ready = aggregators_[group].full_mask_threshold();
  if (!ready) {
    ready = true;
    for (const NodeId holder : plan_.groups[group].holders) {
      if (conn_of_node_[holder] != 0 && !reported_[holder]) {
        ready = false;
        break;
      }
    }
  }
  if (!ready) return;
  const auto out = aggregators_[group].try_reconstruct();
  if (!out.has_value()) return;  // below threshold; T2 records the loss
  GroupOutcome outcome;
  outcome.aggregate = out->aggregate.value();
  outcome.contributor_mask = out->contributor_mask;
  outcome.sums_used = out->sums_used;
  outcome.ok =
      out->aggregate == expected_sum(config_.deployment_seed, round_,
                                     plan_.groups[group],
                                     out->contributor_mask);
  group_outcome_[group] = outcome;
  group_final_[group] = 1;
  if (std::all_of(group_final_.begin(), group_final_.end(),
                  [](char f) { return f != 0; })) {
    finalize_round();
  }
}

void Coordinator::request_stragglers() {
  SumRequest msg;
  msg.round = static_cast<std::uint16_t>(round_);
  const Bytes payload = msg.encode();
  for (std::uint32_t g = 0; g < plan_.groups.size(); ++g) {
    if (group_final_[g]) continue;
    for (const NodeId holder : plan_.groups[g].holders) {
      if (!reported_[holder] && conn_of_node_[holder] != 0) {
        loop_.send_frame(conn_of_node_[holder], FrameType::kSumRequest,
                         payload);
      }
    }
  }
}

void Coordinator::finalize_round() {
  if (state_ != State::kRunning) return;
  loop_.cancel_timer(t1_token_);
  loop_.cancel_timer(t2_token_);

  RoundOutcome outcome;
  outcome.round = round_;
  outcome.ok = true;
  outcome.full_coverage = true;
  field::Fp61 aggregate{0};
  field::Fp61 expected{0};
  for (std::uint32_t g = 0; g < plan_.groups.size(); ++g) {
    if (!group_final_[g]) {
      // T2 best effort: reconstruct from whatever reported.
      const auto out = aggregators_[g].try_reconstruct();
      if (out.has_value()) {
        GroupOutcome go;
        go.aggregate = out->aggregate.value();
        go.contributor_mask = out->contributor_mask;
        go.sums_used = out->sums_used;
        go.ok = out->aggregate ==
                expected_sum(config_.deployment_seed, round_,
                             plan_.groups[g], out->contributor_mask);
        group_outcome_[g] = go;
      }
      group_final_[g] = 1;
    }
    const auto& go = group_outcome_[g];
    if (go.has_value()) {
      outcome.groups.push_back(*go);
      outcome.ok = outcome.ok && go->ok;
      aggregate += field::Fp61{go->aggregate};
      expected += expected_sum(config_.deployment_seed, round_,
                               plan_.groups[g], go->contributor_mask);
      outcome.contributors += static_cast<std::uint32_t>(
          std::popcount(go->contributor_mask));
      if (go->contributor_mask != aggregators_[g].full_mask()) {
        outcome.full_coverage = false;
      }
    } else {
      outcome.groups.push_back(GroupOutcome{});
      outcome.ok = false;
      outcome.full_coverage = false;
    }
  }
  outcome.aggregate = aggregate.value();
  outcome.expected = expected.value();
  outcome.crashed = crashed_this_round_;
  std::sort(outcome.crashed.begin(), outcome.crashed.end());
  if (!outcome.ok) exit_code_ = 1;
  outcomes_.push_back(std::move(outcome));

  RoundResult result;
  result.round = static_cast<std::uint16_t>(round_);
  result.ok = outcomes_.back().ok ? 1 : 0;
  result.aggregate = outcomes_.back().aggregate;
  const Bytes payload = result.encode();
  for (NodeId n = 0; n < config_.node_count; ++n) {
    if (conn_of_node_[n] != 0) {
      loop_.send_frame(conn_of_node_[n], FrameType::kRoundResult, payload);
    }
  }
  if (progress_ != nullptr) {
    *progress_ << "coordinator: round " << round_ << " "
               << (outcomes_.back().ok ? "ok" : "FAILED") << " after "
               << steady_now_ms() - campaign_start_ms_ << " ms\n";
  }

  ++round_;
  if (round_ < config_.rounds) {
    start_round();
  } else {
    finish_campaign();
  }
}

void Coordinator::finish_campaign() {
  state_ = State::kDone;
  const Bytes payload = Shutdown{}.encode();
  for (NodeId n = 0; n < config_.node_count; ++n) {
    if (conn_of_node_[n] != 0) {
      loop_.send_frame(conn_of_node_[n], FrameType::kShutdown, payload);
      loop_.close_after_flush(conn_of_node_[n]);
    }
  }
  // Stop once every peer drained (or after a short grace for laggards).
  const auto poll_done = [this](auto&& self) -> void {
    if (loop_.connection_count() == 0) {
      loop_.stop();
      return;
    }
    loop_.add_timer(20, [this, self] { self(self); });
  };
  poll_done(poll_done);
  loop_.add_timer(2000, [this] { loop_.stop(); });
}

void Coordinator::on_close(std::uint64_t conn) {
  const auto it = node_of_conn_.find(conn);
  if (it == node_of_conn_.end()) return;
  const NodeId node = it->second;
  node_of_conn_.erase(it);
  conn_of_node_[node] = 0;
  if (crashed_[node]) return;
  crashed_[node] = 1;
  if (state_ == State::kRunning) {
    crashed_this_round_.push_back(node);
    if (progress_ != nullptr) {
      *progress_ << "coordinator: node " << node << " lost in round "
                 << round_ << "\n";
    }
    // The loss may make its group's remaining holders the complete set.
    maybe_finalize_early(plan_.group_of[node]);
  } else if (state_ == State::kJoining) {
    // A joined node dying before the campaign can never complete a
    // full join; give up immediately rather than waiting out the
    // join timeout.
    exit_code_ = 1;
    loop_.stop();
  }
}

void Coordinator::build_report() {
  using bench_core::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("schema", "mpciot-bench/1");
  doc.set("seed", config_.deployment_seed);
  doc.set("reps", config_.rounds);
  JsonValue scenarios = JsonValue::array();
  JsonValue s = JsonValue::object();
  s.set("name", "distributed_rt");
  s.set("description",
        "real-socket share+sum rounds over the rt star relay");
  s.set("deterministic", true);
  JsonValue rows = JsonValue::array();
  for (const RoundOutcome& r : outcomes_) {
    JsonValue row = JsonValue::object();
    row.set("round", r.round);
    row.set("nodes", config_.node_count);
    row.set("groups", static_cast<std::uint64_t>(r.groups.size()));
    row.set("ok", r.ok);
    row.set("full_coverage", r.full_coverage);
    row.set("contributors", r.contributors);
    row.set("aggregate", r.aggregate);
    row.set("expected", r.expected);
    JsonValue groups = JsonValue::array();
    for (const GroupOutcome& g : r.groups) {
      JsonValue gv = JsonValue::object();
      gv.set("ok", g.ok);
      gv.set("aggregate", g.aggregate);
      gv.set("mask", g.contributor_mask);
      gv.set("sums_used", g.sums_used);
      groups.push_back(std::move(gv));
    }
    row.set("group_outcomes", std::move(groups));
    JsonValue crashed = JsonValue::array();
    for (const NodeId n : r.crashed) crashed.push_back(n);
    row.set("crashed", std::move(crashed));
    rows.push_back(std::move(row));
  }
  s.set("rows", std::move(rows));
  scenarios.push_back(std::move(s));
  doc.set("scenarios", std::move(scenarios));
  doc.set("refused_hellos", refused_hellos_);
  report_ = std::move(doc);
}

}  // namespace mpciot::rt
