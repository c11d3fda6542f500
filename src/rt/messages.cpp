#include "rt/messages.hpp"

#include <algorithm>

namespace mpciot::rt {

void put_ids(Bytes& out, const std::vector<NodeId>& ids) {
  append_le(out, static_cast<std::uint16_t>(ids.size()));
  for (const NodeId id : ids) append_le(out, id);
}

bool get_ids(ByteReader& in, std::vector<NodeId>& ids) {
  std::uint16_t n = 0;
  if (!in.le(n)) return false;
  if (n == 0 || n > kMaxIdList) return false;
  // Bound before trusting: n u32s must actually be present.
  if (in.remaining() < 4u * n) return false;
  ids.clear();
  ids.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    NodeId id = 0;
    if (!in.le(id)) return false;
    // A repeated id would fail roles::validate in the daemons.
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) return false;
    ids.push_back(id);
  }
  return true;
}

}  // namespace mpciot::rt
