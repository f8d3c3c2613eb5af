// Wide destination sets for the billboard protocol.
//
// The protocol's per-slot bookkeeping ("which receivers have not acked
// slot b yet") and the post() fan-out both used a u32 bitmask, which
// capped the addressable world at 32 procs (ROADMAP item 1). DestSet is
// the small-vector replacement: ranks 0..63 live in one inline u64 --
// the common case allocates nothing and compares/merges in a single
// word -- and ranks 64+ spill into heap words. All iteration is
// word-skipping, so flag-mirror scans and GC cost O(members + procs/64)
// words, not O(procs) bits.
#pragma once

#include <bit>
#include <vector>

#include "common/types.h"

namespace scrnet::bbp {

class DestSet {
 public:
  DestSet() = default;

  void set(u32 r) {
    if (r < 64) {
      lo_ |= u64{1} << r;
      return;
    }
    const u32 w = r / 64 - 1;
    if (w >= hi_.size()) hi_.resize(w + 1, 0);
    hi_[w] |= u64{1} << (r % 64);
  }

  void clear(u32 r) {
    if (r < 64) {
      lo_ &= ~(u64{1} << r);
      return;
    }
    const u32 w = r / 64 - 1;
    if (w < hi_.size()) {
      hi_[w] &= ~(u64{1} << (r % 64));
      // Keep the representation canonical so == stays a plain compare.
      while (!hi_.empty() && hi_.back() == 0) hi_.pop_back();
    }
  }

  bool test(u32 r) const {
    if (r < 64) return (lo_ >> r) & 1u;
    const u32 w = r / 64 - 1;
    return w < hi_.size() && ((hi_[w] >> (r % 64)) & 1u);
  }

  bool empty() const { return lo_ == 0 && hi_.empty(); }

  u32 count() const {
    u32 n = static_cast<u32>(std::popcount(lo_));
    for (u64 w : hi_) n += static_cast<u32>(std::popcount(w));
    return n;
  }

  /// True iff every member rank is < procs.
  bool within(u32 procs) const {
    if (procs >= 64 + 64 * hi_.size()) return true;
    if (procs <= 64) {
      // Canonical hi_ never ends in a zero word, so non-empty means some
      // rank >= 64 is set.
      if (!hi_.empty()) return false;
      return procs == 64 || (lo_ >> procs) == 0;
    }
    const u32 w = procs / 64 - 1;  // hi_ word holding rank procs-1
    const u32 rem = procs % 64;
    // Words at and past the boundary must be empty; when procs is mid-word
    // the boundary word may keep its low `rem` bits.
    for (u32 i = rem == 0 ? w : w + 1; i < hi_.size(); ++i)
      if (hi_[i] != 0) return false;
    return rem == 0 || w >= hi_.size() || (hi_[w] >> rem) == 0;
  }

  void or_with(const DestSet& o) {
    lo_ |= o.lo_;
    if (o.hi_.size() > hi_.size()) hi_.resize(o.hi_.size(), 0);
    for (usize i = 0; i < o.hi_.size(); ++i) hi_[i] |= o.hi_[i];
  }

  /// Visit every member rank in ascending order, skipping empty words.
  template <typename F>
  void for_each(F&& f) const {
    for (u64 w = lo_; w != 0; w &= w - 1)
      f(static_cast<u32>(std::countr_zero(w)));
    for (usize i = 0; i < hi_.size(); ++i) {
      const u32 base = 64 + static_cast<u32>(i) * 64;
      for (u64 w = hi_[i]; w != 0; w &= w - 1)
        f(base + static_cast<u32>(std::countr_zero(w)));
    }
  }

  friend bool operator==(const DestSet& a, const DestSet& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  u64 lo_ = 0;            // ranks 0..63 (inline; the whole set for P <= 64)
  std::vector<u64> hi_;   // ranks 64+, canonical (no trailing zero words)
};

}  // namespace scrnet::bbp
