#include "tune/table.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace scrnet::tune {

namespace {

/// "*" or a decimal u32.
u32 parse_limit(const std::string& tok, usize lineno) {
  if (tok == "*") return kUnlimited;
  char* end = nullptr;
  const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0' || v > kUnlimited)
    throw std::invalid_argument("tune: bad limit '" + tok + "' on line " +
                                std::to_string(lineno));
  return static_cast<u32>(v);
}

std::string fmt_limit(u32 v) {
  return v == kUnlimited ? "*" : std::to_string(v);
}

}  // namespace

DecisionTable DecisionTable::parse(std::string_view text) {
  DecisionTable t;
  std::istringstream in{std::string(text)};
  std::string line;
  usize lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and whitespace-only lines.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;
    if (!saw_header) {
      std::string ver;
      if (tok != "table" || !(ls >> ver) || ver != "v1")
        throw std::invalid_argument(
            "tune: decision table must start with 'table v1' (line " +
            std::to_string(lineno) + ")");
      saw_header = true;
      continue;
    }
    Rule r;
    r.device = tok;
    std::string nodes, bytes;
    if (!(ls >> r.op >> nodes >> bytes >> r.algo))
      throw std::invalid_argument("tune: short rule on line " +
                                  std::to_string(lineno));
    std::string extra;
    if (ls >> extra)
      throw std::invalid_argument("tune: trailing tokens on line " +
                                  std::to_string(lineno));
    r.max_nodes = parse_limit(nodes, lineno);
    r.max_bytes = parse_limit(bytes, lineno);
    t.add(std::move(r));
  }
  if (!saw_header)
    throw std::invalid_argument("tune: empty decision table (no 'table v1')");
  return t;
}

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
  static const DecisionTable t = parse(
#include "tune/builtin_table.inc"
  );
  return t;
}

}  // namespace scrnet::tune
