// Unified counter registry: the one place per-run statistics end up.
//
// Each layer keeps its cheap ad-hoc stats struct for the hot path
// (bbp::EndpointStats, scrmpi::CallStats, the ring's Counter fields) and
// *publishes* it here -- Endpoint::publish_counters, Mpi::publish_counters,
// Ring::publish_counters -- typically once per rank at the end of a harness
// run. The registry then renders everything through one API: JSON for
// machines, an aligned table for humans.
//
// Counters are grouped ("bbp.rank0", "ring", "sim") and, like the tracer,
// disabled by default so tests and benches that do not ask for statistics
// pay nothing. SCRNET_COUNTERS=<path|-> enables collection at startup and
// dumps at exit ("-" = table on stderr, otherwise JSON to the path).
#pragma once

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/types.h"

namespace scrnet::obs {

class Counters {
 public:
  /// Process-wide registry: the global obs::Sink's counters (the
  /// single-run default, dumped at process exit when SCRNET_COUNTERS is
  /// set).
  static Counters& global();

  static bool enabled() { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  /// Accumulate `delta` onto group/name (creates the counter at 0).
  void add(std::string_view group, std::string_view name, u64 delta);
  /// Read a counter; 0 if never published.
  u64 get(std::string_view group, std::string_view name) const;

  bool empty() const;
  void clear();

  /// {"group":{"name":value,...},...}
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;
  /// Aligned "group.name  value" table, groups and names sorted.
  void write_table(std::ostream& os) const;

 private:
  using NameMap = std::map<std::string, u64, std::less<>>;

  mutable std::mutex mu_;
  std::map<std::string, NameMap, std::less<>> groups_;

  static inline bool enabled_ = false;
};

}  // namespace scrnet::obs
