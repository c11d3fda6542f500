// Typed payloads of the runtime's control frames. Each message states
// its wire layout once, as the ordered field list its `fields()`
// returns; Codec generates `encode() -> Bytes` and a strict
// `decode(payload) -> optional` from that list. decode() rejects short,
// oversized, or internally inconsistent payloads (a decoder never
// trusts list lengths without bounding them first).
//
// The two data-plane messages, ShareFwd and SumReport, carry the
// existing core::wire packets verbatim: the coordinator relays
// SharePackets end-to-end without holding the pairwise AES keys of the
// (source, holder) pair, so the star topology adds no trust — exactly
// the paper's model where the network sees only ciphertext.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/wire.hpp"

namespace mpciot::rt {

/// Cap on an id list: one round addresses at most 64 sources (the
/// SumPacket bitmap width); holders are bounded by the same group.
inline constexpr std::uint16_t kMaxIdList = 64;

/// Field-list entry for a Bytes member that is exactly `size` bytes on
/// the wire (a core::wire packet carried verbatim).
template <typename M>
struct FixedBytes {
  Bytes M::*member;
  std::size_t size;
};

/// Id-list codec: a u16 count in [1, kMaxIdList], then that many
/// distinct u32 ids.
void put_ids(Bytes& out, const std::vector<NodeId>& ids);
bool get_ids(ByteReader& in, std::vector<NodeId>& ids);

/// Base of every message M. M::fields() lists the wire layout in order;
/// each entry is one of
///   - a pointer to an unsigned integer member: little-endian, its width;
///   - a pointer to a std::vector<NodeId> member: an id list (above);
///   - a FixedBytes<M>: exactly that many raw bytes.
/// decode() also rejects what M::valid() refuses, when M declares one.
template <typename M>
struct Codec {
  Bytes encode() const {
    const M& m = static_cast<const M&>(*this);
    Bytes out;
    std::apply([&](auto... field) { (put(out, m, field), ...); },
               M::fields());
    return out;
  }

  static std::optional<M> decode(const Bytes& payload) {
    ByteReader in(payload);
    M m;
    const bool read = std::apply(
        [&](auto... field) { return (get(in, m, field) && ...); },
        M::fields());
    if (!read || !in.exhausted() || !m.valid()) return std::nullopt;
    return m;
  }

  bool valid() const { return true; }

 private:
  template <std::unsigned_integral T>
  static void put(Bytes& out, const M& m, T M::*field) {
    append_le(out, m.*field);
  }
  static void put(Bytes& out, const M& m, std::vector<NodeId> M::*field) {
    put_ids(out, m.*field);
  }
  static void put(Bytes& out, const M& m, FixedBytes<M> field) {
    const Bytes& bytes = m.*field.member;
    out.insert(out.end(), bytes.begin(), bytes.end());
  }

  template <std::unsigned_integral T>
  static bool get(ByteReader& in, M& m, T M::*field) {
    return in.le(m.*field);
  }
  static bool get(ByteReader& in, M& m, std::vector<NodeId> M::*field) {
    return get_ids(in, m.*field);
  }
  static bool get(ByteReader& in, M& m, FixedBytes<M> field) {
    return in.raw(field.size, m.*field.member);
  }
};

/// node -> coordinator, first frame on a connection. The coordinator
/// refuses a Hello whose generation does not match its own — a node
/// left over from a previous deployment (e.g. across a coordinator
/// restart) must not join the new one.
struct Hello : Codec<Hello> {
  std::uint32_t generation = 0;
  NodeId node = 0;
  std::uint32_t node_count = 0;
  std::uint64_t deployment_seed = 0;

  static constexpr auto fields() {
    return std::tuple{&Hello::generation, &Hello::node, &Hello::node_count,
                      &Hello::deployment_seed};
  }
};

/// coordinator -> node: the Hello was rejected; the connection closes.
struct Refuse : Codec<Refuse> {
  std::uint32_t generation = 0;  ///< the coordinator's generation

  static constexpr auto fields() { return std::tuple{&Refuse::generation}; }
};

/// coordinator -> node: the node's group assignment for the deployment.
/// Sources and holders are global ids in schedule order; bit i of every
/// contributor mask refers to sources[i]. decode() rejects every
/// assignment core::roles::validate would (an empty list, a repeated
/// id, degree 0, fewer holders than degree + 1) and lists over 64 ids.
struct Assign : Codec<Assign> {
  std::uint32_t group = 0;
  std::uint32_t degree = 1;
  std::vector<NodeId> sources;
  std::vector<NodeId> holders;

  static constexpr auto fields() {
    return std::tuple{&Assign::group, &Assign::degree, &Assign::sources,
                      &Assign::holders};
  }
  bool valid() const {
    return degree >= 1 && degree <= kMaxIdList &&
           degree + 1 <= holders.size();
  }
};

/// coordinator -> nodes: begin round `round`. Secrets are derived, not
/// carried: every party computes deterministic_secret(seed, round, id).
struct RoundStart : Codec<RoundStart> {
  std::uint16_t round = 0;

  static constexpr auto fields() { return std::tuple{&RoundStart::round}; }
};

/// Relayed SharePacket. node -> coordinator: deliver to `dst`;
/// coordinator -> node: a share addressed to you. The 18-byte packet
/// stays AES-CTR + CMAC protected under the (source, dst) pairwise key
/// end to end.
struct ShareFwd : Codec<ShareFwd> {
  NodeId dst = 0;
  Bytes packet;  ///< exactly core::SharePacket::kWireSize bytes

  static constexpr auto fields() {
    return std::tuple{&ShareFwd::dst,
                      FixedBytes<ShareFwd>{&ShareFwd::packet,
                                           core::SharePacket::kWireSize}};
  }
};

/// holder -> coordinator: the holder's (partial or complete) point-sum.
struct SumReport : Codec<SumReport> {
  Bytes packet;  ///< exactly core::SumPacket::kWireSize bytes

  static constexpr auto fields() {
    return std::tuple{FixedBytes<SumReport>{&SumReport::packet,
                                            core::SumPacket::kWireSize}};
  }
};

/// coordinator -> holder: report your point-sum now, complete or not
/// (straggler re-request after the phase timeout).
struct SumRequest : Codec<SumRequest> {
  std::uint16_t round = 0;

  static constexpr auto fields() { return std::tuple{&SumRequest::round}; }
};

/// coordinator -> nodes: the round's outcome (informational; nodes use
/// it to discard round state).
struct RoundResult : Codec<RoundResult> {
  std::uint16_t round = 0;
  std::uint8_t ok = 0;
  std::uint64_t aggregate = 0;  ///< canonical Fp61 value; 0 when !ok

  static constexpr auto fields() {
    return std::tuple{&RoundResult::round, &RoundResult::ok,
                      &RoundResult::aggregate};
  }
  bool valid() const { return ok <= 1; }
};

/// coordinator -> nodes: campaign complete, exit cleanly. Empty payload.
struct Shutdown : Codec<Shutdown> {
  static constexpr auto fields() { return std::tuple{}; }
};

}  // namespace mpciot::rt
