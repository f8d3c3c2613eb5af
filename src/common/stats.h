// Streaming statistics helpers for benchmark harnesses and device models.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/types.h"

namespace scrnet {

/// Sample reservoir with exact percentiles (benchmarks collect few samples).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  usize size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  double percentile(double p) const {
    if (xs_.empty()) return 0.0;
    std::vector<double> v = xs_;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const usize lo = static_cast<usize>(rank);
    const usize hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  }
  double median() const { return percentile(50.0); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }
  double mean() const {
    if (xs_.empty()) return 0.0;
    double s = 0;
    for (double x : xs_) s += x;
    return s / static_cast<double>(xs_.size());
  }

 private:
  std::vector<double> xs_;
};

/// Log-bucketed latency histogram with deterministic integer percentiles.
///
/// The workload/fault scenario reports need p50/p99/p999 over up to
/// millions of per-op latencies, byte-identical across --jobs values and
/// platforms. Exact-sample percentiles (Samples) interpolate in floating
/// point; this histogram instead buckets values HDR-style -- 16 linear
/// sub-buckets per power of two, ~6% worst-case relative error -- and
/// reports the bucket's lower bound, so every arithmetic step is integral.
/// add() is O(1) with no allocation; merge() makes per-rank collection
/// order irrelevant.
class LogHistogram {
 public:
  static constexpr u32 kSubBits = 4;                    // 16 sub-buckets/octave
  static constexpr u32 kSub = 1u << kSubBits;
  // Octaves 1..(63-kSubBits+1) above the 16 exact low buckets.
  static constexpr u32 kBuckets = (64 - kSubBits + 1) * kSub;

  void add(u64 v) {
    ++counts_[bucket_of(v)];
    ++n_;
    max_ = std::max(max_, v);
  }

  void merge(const LogHistogram& o) {
    for (u32 i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    max_ = std::max(max_, o.max_);
  }

  u64 count() const { return n_; }
  u64 max() const { return n_ ? max_ : 0; }

  /// Value at permille rank `pm` (500 = p50, 990 = p99, 999 = p99.9):
  /// the lower bound of the bucket holding the ceil(n*pm/1000)-th sample.
  u64 percentile_permille(u32 pm) const {
    if (n_ == 0) return 0;
    const u64 rank = std::max<u64>(1, (n_ * pm + 999) / 1000);
    u64 cum = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
      cum += counts_[i];
      if (cum >= rank) return lower_bound(i);
    }
    return lower_bound(kBuckets - 1);
  }

  static u32 bucket_of(u64 v) {
    if (v < kSub) return static_cast<u32>(v);
    const u32 msb = 63 - static_cast<u32>(std::countl_zero(v));
    const u32 shift = msb - kSubBits;
    return ((msb - kSubBits + 1) << kSubBits) +
           static_cast<u32>((v >> shift) & (kSub - 1));
  }

  static u64 lower_bound(u32 bucket) {
    const u32 octave = bucket >> kSubBits;
    const u64 sub = bucket & (kSub - 1);
    if (octave == 0) return sub;
    return (u64{1} << (octave + kSubBits - 1)) +
           (sub << (octave - 1));
  }

 private:
  std::array<u64, kBuckets> counts_{};
  u64 n_ = 0;
  u64 max_ = 0;
};

/// Simple monotonically-named counter set used by device models.
class Counter {
 public:
  void inc(u64 by = 1) { v_ += by; }
  u64 get() const { return v_; }

 private:
  u64 v_ = 0;
};

}  // namespace scrnet
