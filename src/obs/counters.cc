#include "obs/counters.h"

#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>

namespace scrnet::obs {

// Counters::global() is defined in sink.cc: it is a view into the global
// obs::Sink.

void Counters::add(std::string_view group, std::string_view name, u64 delta) {
  std::lock_guard<std::mutex> lk(mu_);
  auto git = groups_.find(group);
  if (git == groups_.end())
    git = groups_.emplace(std::string(group), NameMap()).first;
  auto nit = git->second.find(name);
  if (nit == git->second.end())
    git->second.emplace(std::string(name), delta);
  else
    nit->second += delta;
}

u64 Counters::get(std::string_view group, std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto git = groups_.find(group);
  if (git == groups_.end()) return 0;
  auto nit = git->second.find(name);
  return nit == git->second.end() ? 0 : nit->second;
}

bool Counters::empty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return groups_.empty();
}

void Counters::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  groups_.clear();
}

void Counters::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "{";
  bool gfirst = true;
  for (const auto& [group, names] : groups_) {
    if (!gfirst) os << ",";
    gfirst = false;
    os << "\"" << group << "\":{";
    bool nfirst = true;
    for (const auto& [name, value] : names) {
      if (!nfirst) os << ",";
      nfirst = false;
      os << "\"" << name << "\":" << value;
    }
    os << "}";
  }
  os << "}\n";
}

bool Counters::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "obs: cannot write counters to " << path << "\n";
    return false;
  }
  write_json(f);
  return true;
}

void Counters::write_table(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  usize width = 0;
  for (const auto& [group, names] : groups_)
    for (const auto& [name, value] : names)
      width = std::max(width, group.size() + 1 + name.size());
  for (const auto& [group, names] : groups_) {
    for (const auto& [name, value] : names) {
      os << std::left << std::setw(static_cast<int>(width) + 2)
         << (group + "." + name) << value << "\n";
    }
  }
}

}  // namespace scrnet::obs
