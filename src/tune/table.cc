#include "tune/table.h"

#include <sstream>

namespace scrnet::tune {

namespace {

std::string fmt_limit(u32 v) {
  return v == kUnlimited ? "*" : std::to_string(v);
}

}  // namespace

std::string_view DecisionTable::pick(std::string_view device,
                                     std::string_view op, u32 nodes,
                                     u32 bytes) const {
  for (const Rule& r : rules_) {
    if (r.op != op) continue;
    if (r.device != "*" && r.device != device) continue;
    if (nodes > r.max_nodes || bytes > r.max_bytes) continue;
    return r.algo;
  }
  return {};
}

std::string DecisionTable::serialize() const {
  std::ostringstream out;
  out << "table v1\n";
  out << "# device op max_nodes max_bytes algorithm\n";
  for (const Rule& r : rules_)
    out << r.device << ' ' << r.op << ' ' << fmt_limit(r.max_nodes) << ' '
        << fmt_limit(r.max_bytes) << ' ' << r.algo << '\n';
  return out.str();
}

const DecisionTable& DecisionTable::builtin() {
  static const DecisionTable t({
#include "tune/builtin_table.inc"
  });
  return t;
}

}  // namespace scrnet::tune
