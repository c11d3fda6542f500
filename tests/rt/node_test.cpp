// The node daemon against a fake coordinator. An Assign that decodes
// but names ids the deployment cannot serve must end the node with
// kExitError, never abort it. The coordinator side is an EventLoop in
// the test process; the node runs run_node in a forked child.
#include "rt/node.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "rt/event_loop.hpp"
#include "rt/messages.hpp"

namespace mpciot::rt {
namespace {

/// Runs node 0 of a 4-node deployment against a coordinator that
/// answers its Hello with `assign` and RoundStart 0. Returns the node's
/// exit code, or minus the signal that killed it.
int node_outcome(const Assign& assign) {
  EventLoop coordinator;
  const std::uint16_t port = coordinator.listen_local(0);
  const pid_t pid = fork();
  if (pid == 0) {
    NodeConfig cfg;
    cfg.node = 0;
    cfg.node_count = 4;
    cfg.port = port;
    // As in mpciot-node's main, an exception escaping run_node ends the
    // process through std::terminate (and never reaches gtest's
    // handler in this copy of the test process).
    _exit([&]() noexcept { return run_node(cfg); }());
  }
  if (pid < 0) return -1;  // fork failed

  coordinator.set_on_frame([&](std::uint64_t conn, Frame&& frame) {
    if (frame.type != FrameType::kHello) return;
    coordinator.send_frame(conn, FrameType::kAssign, assign.encode());
    RoundStart start;
    start.round = 0;
    coordinator.send_frame(conn, FrameType::kRoundStart, start.encode());
  });
  // The node hangs up when it exits or dies.
  coordinator.set_on_close([&](std::uint64_t) { coordinator.stop(); });
  coordinator.add_timer(10000, [&] { coordinator.stop(); });
  coordinator.run();

  int status = 0;
  for (int i = 0; i < 500 && waitpid(pid, &status, WNOHANG) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (waitpid(pid, &status, WNOHANG) == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

Assign assign_with_holders(std::vector<NodeId> holders) {
  Assign assign;
  assign.degree = 1;
  assign.sources = {0, 1, 2, 3};
  assign.holders = std::move(holders);
  return assign;
}

TEST(NodeDaemon, RepeatedHolderInAssignEndsTheNodeWithAnError) {
  EXPECT_EQ(node_outcome(assign_with_holders({0, 1, 1})), kExitError);
}

TEST(NodeDaemon, HolderOutsideTheDeploymentEndsTheNodeWithAnError) {
  EXPECT_EQ(node_outcome(assign_with_holders({0, 1, 9})), kExitError);
}

}  // namespace
}  // namespace mpciot::rt
