#include "rt/node.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "crypto/prng.hpp"
#include "rt/deployment.hpp"

namespace mpciot::rt {

namespace {

/// Dealer-DRBG stream tag (node-local; the coordinator never needs it).
constexpr std::uint64_t kStreamDeal = 0x5254444Cull;  // "RTDL"

class NodeDaemon {
 public:
  explicit NodeDaemon(const NodeConfig& config)
      : config_(config), keys_(config.deployment_seed, config.node_count) {}

  int run() {
    const auto conn = loop_.connect_local(config_.port);
    if (!conn.has_value()) return kExitError;
    conn_ = *conn;

    Hello hello;
    hello.generation = config_.generation;
    hello.node = config_.node;
    hello.node_count = config_.node_count;
    hello.deployment_seed = config_.deployment_seed;
    if (!loop_.send_frame(conn_, FrameType::kHello, hello.encode())) {
      return kExitError;
    }

    loop_.set_on_frame([this](std::uint64_t c, Frame&& f) {
      if (c == conn_) on_frame(std::move(f));
    });
    loop_.set_on_close([this](std::uint64_t c) {
      // Coordinator gone without Shutdown: a failure unless refused.
      if (c == conn_ && exit_code_ == kExitError) loop_.stop();
    });
    loop_.run();
    return exit_code_;
  }

 private:
  void on_frame(Frame&& frame) {
    switch (frame.type) {
      case FrameType::kRefuse:
        exit_code_ = kExitRefused;
        loop_.stop();
        return;
      case FrameType::kAssign: {
        auto msg = Assign::decode(frame.payload);
        if (!msg.has_value() || !in_deployment(*msg)) return fail();
        assign_ = std::move(*msg);
        return;
      }
      case FrameType::kRoundStart: {
        const auto msg = RoundStart::decode(frame.payload);
        if (!msg.has_value() || !assign_.has_value()) return fail();
        return start_round(msg->round);
      }
      case FrameType::kShareFwd: {
        const auto msg = ShareFwd::decode(frame.payload);
        if (!msg.has_value()) return fail();
        return on_share(*msg);
      }
      case FrameType::kSumRequest: {
        const auto msg = SumRequest::decode(frame.payload);
        if (!msg.has_value()) return fail();
        if (holder_.has_value() && round_ == msg->round) report_sum();
        return;
      }
      case FrameType::kRoundResult:
        // Informational; round state is replaced on the next RoundStart.
        return;
      case FrameType::kShutdown:
        exit_code_ = kExitOk;
        loop_.stop();
        return;
      default:
        return fail();  // peer sent a node-only message back
    }
  }

  /// Every id the assignment names is a node of this deployment (the
  /// pairwise keystore holds no key for any other id).
  bool in_deployment(const Assign& assign) const {
    const auto known = [this](NodeId id) { return id < config_.node_count; };
    return std::all_of(assign.sources.begin(), assign.sources.end(), known) &&
           std::all_of(assign.holders.begin(), assign.holders.end(), known);
  }

  void start_round(std::uint16_t round) {
    round_ = round;
    core::roles::RoundSpec spec;
    spec.sources = assign_->sources;
    spec.holders = assign_->holders;
    spec.degree = assign_->degree;
    spec.round = round;

    holder_.reset();
    reported_ = false;
    const auto holder_idx = core::roles::index_of(spec.holders, config_.node);
    if (holder_idx.has_value()) holder_.emplace(spec, config_.node);

    if (core::roles::index_of(spec.sources, config_.node).has_value()) {
      const field::Fp61 secret = deterministic_secret(
          config_.deployment_seed, round, config_.node);
      crypto::CtrDrbg drbg(
          crypto::derive_seed(config_.deployment_seed, kStreamDeal,
                              config_.node),
          round);
      core::roles::SourceRole source(spec, config_.node);
      source.deal(round, secret, drbg);

      const bool crash_now = config_.crash_at_round == round;
      Bytes wire;
      for (std::size_t i = 0; i < spec.holders.size(); ++i) {
        // Crash injection: deal to fewer than degree+1 holders, then
        // die — no surviving holder set can reconstruct a mask that
        // includes this node, forcing threshold recovery on the rest.
        if (crash_now && i >= spec.degree) break;
        if (source.encode_share(i, source.share(i), keys_, wire)) {
          ShareFwd fwd;
          fwd.dst = spec.holders[i];
          fwd.packet = wire;
          if (!loop_.send_frame(conn_, FrameType::kShareFwd, fwd.encode())) {
            return fail();
          }
        } else {
          holder_->accept_local(config_.node, source.share(i));
        }
      }
      if (crash_now) _exit(kExitCrashed);
    }
    maybe_report();
  }

  void on_share(const ShareFwd& msg) {
    if (!holder_.has_value() || msg.dst != config_.node) return;
    holder_->accept_wire(msg.packet, keys_);
    maybe_report();
  }

  /// Report the point-sum once, as soon as every group source is in.
  void maybe_report() {
    if (holder_.has_value() && !reported_ && holder_->complete()) {
      report_sum();
    }
  }

  void report_sum() {
    if (holder_->contributor_mask() == 0) return;  // nothing to report
    SumReport report;
    report.packet = holder_->sum_packet().encode();
    if (!loop_.send_frame(conn_, FrameType::kSumReport, report.encode())) {
      return fail();
    }
    reported_ = true;
  }

  void fail() {
    exit_code_ = kExitError;
    loop_.stop();
  }

  NodeConfig config_;
  crypto::KeyStore keys_;
  EventLoop loop_;
  std::uint64_t conn_ = 0;
  std::optional<Assign> assign_;
  std::optional<core::roles::HolderRole> holder_;
  std::uint16_t round_ = 0;
  bool reported_ = false;
  int exit_code_ = kExitError;
};

}  // namespace

int run_node(const NodeConfig& config) {
  NodeDaemon daemon(config);
  return daemon.run();
}

}  // namespace mpciot::rt
