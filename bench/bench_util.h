// Shared reporting helpers for the figure-reproduction benches. Each bench
// binary prints (a) the series the paper's figure plots and (b) a
// paper-vs-measured check of the figure's headline claims.
#pragma once

#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/chart.h"
#include "common/table.h"
#include "common/types.h"

namespace scrnet::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n==========================================================\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "==========================================================\n";
}

/// A named latency series over message sizes.
struct Series {
  std::string name;
  std::vector<double> us;  // parallel to the sizes vector
};

inline void print_series(const std::vector<u32>& sizes,
                         const std::vector<Series>& series,
                         const std::string& chart_title = {}) {
  std::vector<std::string> hdr{"bytes"};
  for (const auto& s : series) hdr.push_back(s.name + " (us)");
  Table t(hdr);
  for (usize i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{std::to_string(sizes[i])};
    for (const auto& s : series) row.push_back(Table::num(s.us[i]));
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  // Render the figure the way the paper plots it.
  AsciiChart chart(chart_title.empty() ? "one-way latency vs message size"
                                       : chart_title,
                   "message size (bytes)", "latency (us)");
  static constexpr char kGlyphs[] = {'S', 'F', 'A', 'M', 'T', 'H', '#', '%'};
  std::vector<double> xs(sizes.begin(), sizes.end());
  for (usize i = 0; i < series.size(); ++i)
    chart.add_series(series[i].name, kGlyphs[i % sizeof kGlyphs], xs,
                     series[i].us);
  chart.print(std::cout);
}

/// Check a measured value against the paper's number within a tolerance
/// band (fraction, e.g. 0.25 = +/-25%).
inline bool check(const std::string& what, double paper, double measured,
                  double tol_frac) {
  const bool ok = std::fabs(measured - paper) <= tol_frac * paper;
  std::cout << (ok ? "  [OK]  " : "  [DEV] ") << what << ": paper=" << paper
            << "us measured=" << Table::num(measured)
            << "us (tol +/-" << static_cast<int>(tol_frac * 100) << "%)\n";
  return ok;
}

/// Check an ordering/shape claim.
inline bool check_shape(const std::string& what, bool holds) {
  std::cout << (holds ? "  [OK]  " : "  [DEV] ") << what << "\n";
  return holds;
}

/// Linear interpolation of the crossover size where series a first exceeds
/// series b (a starts below b); nullopt if they never cross in range.
inline std::optional<double> crossover(const std::vector<u32>& sizes,
                                       const std::vector<double>& a,
                                       const std::vector<double>& b) {
  for (usize i = 1; i < sizes.size(); ++i) {
    if (a[i - 1] <= b[i - 1] && a[i] > b[i]) {
      const double d0 = b[i - 1] - a[i - 1];
      const double d1 = a[i] - b[i];
      const double frac = d0 / (d0 + d1);
      return sizes[i - 1] + frac * (sizes[i] - sizes[i - 1]);
    }
  }
  return std::nullopt;
}

inline void report_crossover(const std::string& what,
                             const std::optional<double>& x,
                             double paper_lo, double paper_hi) {
  if (!x) {
    std::cout << "  [DEV] " << what << ": no crossover in measured range (paper: "
              << paper_lo << "-" << paper_hi << " B)\n";
    return;
  }
  const bool ok = *x >= paper_lo && *x <= paper_hi;
  std::cout << (ok ? "  [OK]  " : "  [DEV] ") << what << ": crossover at ~"
            << static_cast<int>(*x) << " B (paper band: " << paper_lo << "-"
            << paper_hi << " B)\n";
}

}  // namespace scrnet::bench
