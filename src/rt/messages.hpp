// Typed payloads of the runtime's control frames. Every message has an
// `encode() -> Bytes` and a strict `decode(payload) -> optional` that
// rejects short, oversized, or internally inconsistent payloads (a
// decoder never trusts list lengths without bounding them first).
//
// The two data-plane messages, ShareFwd and SumReport, carry the
// existing core::wire packets verbatim: the coordinator relays
// SharePackets end-to-end without holding the pairwise AES keys of the
// (source, holder) pair, so the star topology adds no trust — exactly
// the paper's model where the network sees only ciphertext.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/wire.hpp"
#include "rt/frame.hpp"

namespace mpciot::rt {

/// node -> coordinator, first frame on a connection. The coordinator
/// refuses a Hello whose generation does not match its own — a node
/// left over from a previous deployment (e.g. across a coordinator
/// restart) must not join the new one.
struct Hello {
  std::uint32_t generation = 0;
  NodeId node = 0;
  std::uint32_t node_count = 0;
  std::uint64_t deployment_seed = 0;

  Bytes encode() const;
  static std::optional<Hello> decode(const Bytes& payload);
};

/// coordinator -> node: the Hello was rejected; the connection closes.
struct Refuse {
  std::uint32_t generation = 0;  ///< the coordinator's generation

  Bytes encode() const;
  static std::optional<Refuse> decode(const Bytes& payload);
};

/// coordinator -> node: the node's group assignment for the deployment.
/// Sources and holders are global ids in schedule order; bit i of every
/// contributor mask refers to sources[i]. decode() rejects every
/// assignment core::roles::validate would (an empty list, a repeated
/// id, degree 0, fewer holders than degree + 1) and lists over 64 ids.
struct Assign {
  std::uint32_t group = 0;
  std::uint32_t degree = 1;
  std::vector<NodeId> sources;
  std::vector<NodeId> holders;

  Bytes encode() const;
  static std::optional<Assign> decode(const Bytes& payload);
};

/// coordinator -> nodes: begin round `round`. Secrets are derived, not
/// carried: every party computes deterministic_secret(seed, round, id).
struct RoundStart {
  std::uint16_t round = 0;

  Bytes encode() const;
  static std::optional<RoundStart> decode(const Bytes& payload);
};

/// Relayed SharePacket. node -> coordinator: deliver to `dst`;
/// coordinator -> node: a share addressed to you. The 18-byte packet
/// stays AES-CTR + CMAC protected under the (source, dst) pairwise key
/// end to end.
struct ShareFwd {
  NodeId dst = 0;
  Bytes packet;  ///< exactly core::SharePacket::kWireSize bytes

  Bytes encode() const;
  static std::optional<ShareFwd> decode(const Bytes& payload);
};

/// holder -> coordinator: the holder's (partial or complete) point-sum.
struct SumReport {
  Bytes packet;  ///< exactly core::SumPacket::kWireSize bytes

  Bytes encode() const;
  static std::optional<SumReport> decode(const Bytes& payload);
};

/// coordinator -> holder: report your point-sum now, complete or not
/// (straggler re-request after the phase timeout).
struct SumRequest {
  std::uint16_t round = 0;

  Bytes encode() const;
  static std::optional<SumRequest> decode(const Bytes& payload);
};

/// coordinator -> nodes: the round's outcome (informational; nodes use
/// it to discard round state).
struct RoundResult {
  std::uint16_t round = 0;
  std::uint8_t ok = 0;
  std::uint64_t aggregate = 0;  ///< canonical Fp61 value; 0 when !ok

  Bytes encode() const;
  static std::optional<RoundResult> decode(const Bytes& payload);
};

/// coordinator -> nodes: campaign complete, exit cleanly. Empty payload.
struct Shutdown {
  Bytes encode() const { return {}; }
  static std::optional<Shutdown> decode(const Bytes& payload);
};

/// Encode `msg` into a full frame appended to `out`.
template <typename Message>
void encode_message_frame(FrameType type, const Message& msg, Bytes& out) {
  encode_frame(type, msg.encode(), out);
}

}  // namespace mpciot::rt
