#include "rt/messages.hpp"

#include <algorithm>

namespace mpciot::rt {

namespace {

/// Cap on Assign list lengths: one round addresses at most 64 sources
/// (the SumPacket bitmap width); holders are bounded by the same group.
constexpr std::uint32_t kMaxAssignList = 64;

void put_id_list(Bytes& out, const std::vector<NodeId>& ids) {
  put_u16(out, static_cast<std::uint16_t>(ids.size()));
  for (const NodeId id : ids) put_u32(out, id);
}

bool get_id_list(Reader& r, std::vector<NodeId>* ids) {
  std::uint16_t n = 0;
  if (!r.u16(&n)) return false;
  if (n == 0 || n > kMaxAssignList) return false;
  // Bound before trusting: n u32s must actually be present.
  if (r.remaining() < 4u * n) return false;
  ids->clear();
  ids->reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    std::uint32_t id = 0;
    if (!r.u32(&id)) return false;
    // A repeated id would fail roles::validate in the daemons.
    if (std::find(ids->begin(), ids->end(), id) != ids->end()) return false;
    ids->push_back(id);
  }
  return true;
}

}  // namespace

Bytes Hello::encode() const {
  Bytes out;
  put_u32(out, generation);
  put_u32(out, node);
  put_u32(out, node_count);
  put_u64(out, deployment_seed);
  return out;
}

std::optional<Hello> Hello::decode(const Bytes& payload) {
  Reader r(payload);
  Hello m;
  if (!r.u32(&m.generation) || !r.u32(&m.node) || !r.u32(&m.node_count) ||
      !r.u64(&m.deployment_seed) || !r.exhausted()) {
    return std::nullopt;
  }
  return m;
}

Bytes Refuse::encode() const {
  Bytes out;
  put_u32(out, generation);
  return out;
}

std::optional<Refuse> Refuse::decode(const Bytes& payload) {
  Reader r(payload);
  Refuse m;
  if (!r.u32(&m.generation) || !r.exhausted()) return std::nullopt;
  return m;
}

Bytes Assign::encode() const {
  Bytes out;
  put_u32(out, group);
  put_u32(out, degree);
  put_id_list(out, sources);
  put_id_list(out, holders);
  return out;
}

std::optional<Assign> Assign::decode(const Bytes& payload) {
  Reader r(payload);
  Assign m;
  std::uint32_t degree = 0;
  if (!r.u32(&m.group) || !r.u32(&degree)) return std::nullopt;
  if (degree == 0 || degree > kMaxAssignList) return std::nullopt;
  m.degree = degree;
  if (!get_id_list(r, &m.sources) || !get_id_list(r, &m.holders) ||
      !r.exhausted()) {
    return std::nullopt;
  }
  if (m.degree + 1 > m.holders.size()) return std::nullopt;
  return m;
}

Bytes RoundStart::encode() const {
  Bytes out;
  put_u16(out, round);
  return out;
}

std::optional<RoundStart> RoundStart::decode(const Bytes& payload) {
  Reader r(payload);
  RoundStart m;
  if (!r.u16(&m.round) || !r.exhausted()) return std::nullopt;
  return m;
}

Bytes ShareFwd::encode() const {
  Bytes out;
  put_u32(out, dst);
  out.insert(out.end(), packet.begin(), packet.end());
  return out;
}

std::optional<ShareFwd> ShareFwd::decode(const Bytes& payload) {
  Reader r(payload);
  ShareFwd m;
  if (!r.u32(&m.dst) ||
      !r.raw(core::SharePacket::kWireSize, &m.packet) || !r.exhausted()) {
    return std::nullopt;
  }
  return m;
}

Bytes SumReport::encode() const { return packet; }

std::optional<SumReport> SumReport::decode(const Bytes& payload) {
  if (payload.size() != core::SumPacket::kWireSize) return std::nullopt;
  SumReport m;
  m.packet = payload;
  return m;
}

Bytes SumRequest::encode() const {
  Bytes out;
  put_u16(out, round);
  return out;
}

std::optional<SumRequest> SumRequest::decode(const Bytes& payload) {
  Reader r(payload);
  SumRequest m;
  if (!r.u16(&m.round) || !r.exhausted()) return std::nullopt;
  return m;
}

Bytes RoundResult::encode() const {
  Bytes out;
  put_u16(out, round);
  out.push_back(ok);
  put_u64(out, aggregate);
  return out;
}

std::optional<RoundResult> RoundResult::decode(const Bytes& payload) {
  Reader r(payload);
  RoundResult m;
  if (!r.u16(&m.round) || !r.u8(&m.ok) || !r.u64(&m.aggregate) ||
      !r.exhausted()) {
    return std::nullopt;
  }
  if (m.ok > 1) return std::nullopt;
  return m;
}

std::optional<Shutdown> Shutdown::decode(const Bytes& payload) {
  if (!payload.empty()) return std::nullopt;
  return Shutdown{};
}

}  // namespace mpciot::rt
