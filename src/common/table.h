// Plain-text table writer used by the benchmark harness to print the
// paper's figure series ("rows the paper reports").
#pragma once

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.h"

namespace scrnet {

/// Collects rows of string cells and renders an aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  Table& add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  /// Convenience: format doubles with fixed precision.
  static std::string num(double v, int prec = 2) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(prec) << v;
    return ss.str();
  }

  void print(std::ostream& os) const {
    std::vector<usize> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (usize i = 0; i < row.size() && i < widths.size(); ++i)
        widths[i] = std::max(widths[i], row[i].size());
    };
    widen(header_);
    for (const auto& r : rows_) widen(r);

    auto emit = [&](const std::vector<std::string>& row) {
      os << "| ";
      for (usize i = 0; i < widths.size(); ++i) {
        os << std::setw(static_cast<int>(widths[i])) << (i < row.size() ? row[i] : "") << " | ";
      }
      os << '\n';
    };
    emit(header_);
    os << "|";
    for (usize w : widths) os << std::string(w + 2, '-') << "|";
    os << '\n';
    for (const auto& r : rows_) emit(r);
  }

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace scrnet
