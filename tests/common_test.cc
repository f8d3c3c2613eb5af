// Tests for the common utility layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "common/bytes.h"
#include "common/chart.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/types.h"
#include "common/units.h"

namespace scrnet {
namespace {

TEST(Types, WordMath) {
  EXPECT_EQ(words_for_bytes(0), 0u);
  EXPECT_EQ(words_for_bytes(1), 1u);
  EXPECT_EQ(words_for_bytes(4), 1u);
  EXPECT_EQ(words_for_bytes(5), 2u);
  EXPECT_EQ(words_for_bytes(1024), 256u);
  EXPECT_EQ(align_up(5, 4), 8u);
  EXPECT_EQ(align_up(8, 4), 8u);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(8, 2), 4);
}

TEST(Units, Conversions) {
  EXPECT_EQ(us(1), 1'000'000);
  EXPECT_EQ(ns(1000), us(1));
  EXPECT_DOUBLE_EQ(to_us(us(250)), 250.0);
  // 6.5 MB/s -> 4 bytes in ~615 ns.
  EXPECT_NEAR(to_ns(transfer_time(4, 6.5)), 615.4, 0.1);
  // 100 Mb/s -> 1000 bits in 10 us.
  EXPECT_NEAR(to_us(wire_time_bits(1000, 100.0)), 10.0, 1e-9);
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::NoSpace("partition full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNoSpace);
  EXPECT_EQ(s.to_string(), "NO_SPACE: partition full");
  EXPECT_EQ(Status::TimedOut(), Status::TimedOut("other msg"));  // code equality
}

TEST(Status, EveryCodeHasAName) {
  const std::pair<StatusCode, std::string_view> names[] = {
      {StatusCode::kOk, "OK"},
      {StatusCode::kNoSpace, "NO_SPACE"},
      {StatusCode::kInvalidArg, "INVALID_ARG"},
      {StatusCode::kUnavailable, "UNAVAILABLE"},
      {StatusCode::kTimedOut, "TIMED_OUT"},
  };
  for (const auto& [code, name] : names) EXPECT_EQ(to_string(code), name);
  EXPECT_EQ(to_string(static_cast<StatusCode>(99)), "UNKNOWN");
  EXPECT_EQ(Status::TimedOut().to_string(), "TIMED_OUT");
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err(Status::Unavailable());
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i)
    if (a2() != c()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng r(7);
  std::vector<u32> buckets(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const u64 v = r.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (u32 b : buckets) {
    EXPECT_GT(b, kN / 10 * 0.9);
    EXPECT_LT(b, kN / 10 * 1.1);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // unsorted insert
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(LogHistogram, BucketRoundTripAndMonotonicity) {
  // lower_bound(bucket_of(v)) <= v, and the low 16 values are exact.
  for (u64 v = 0; v < LogHistogram::kSub; ++v) {
    EXPECT_EQ(LogHistogram::lower_bound(LogHistogram::bucket_of(v)), v);
  }
  for (u64 v : {u64{17}, u64{100}, u64{1000}, u64{123456}, u64{1} << 40,
                (u64{1} << 40) + 12345, ~u64{0}}) {
    const u32 b = LogHistogram::bucket_of(v);
    EXPECT_LT(b, LogHistogram::kBuckets);
    EXPECT_LE(LogHistogram::lower_bound(b), v);
    // The next bucket starts strictly above this one's lower bound.
    if (b + 1 < LogHistogram::kBuckets) {
      EXPECT_GT(LogHistogram::lower_bound(b + 1), LogHistogram::lower_bound(b));
    }
  }
}

TEST(LogHistogram, PercentilesOnKnownData) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_permille(500), 0u);  // empty -> 0
  EXPECT_EQ(h.max(), 0u);
  // 1000 samples: 990 at 10, 9 at 1000, 1 at 8000.
  for (int i = 0; i < 990; ++i) h.add(10);
  for (int i = 0; i < 9; ++i) h.add(1000);
  h.add(8000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.percentile_permille(500), 10u);
  EXPECT_EQ(h.percentile_permille(990), 10u);
  // p99.9 lands on the 999th sample: value 1000, reported as its bucket's
  // lower bound (within one sub-bucket, i.e. 1/16 of an octave, below).
  const u64 p999 = h.percentile_permille(999);
  EXPECT_LE(p999, 1000u);
  EXPECT_GT(p999, 1000u - (1000u >> LogHistogram::kSubBits) - 1);
  EXPECT_EQ(h.max(), 8000u);
}

TEST(LogHistogram, MergeMatchesCombinedStream) {
  LogHistogram a, b, all;
  for (u64 v = 1; v <= 500; ++v) {
    (v % 2 ? a : b).add(v * 7);
    all.add(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.max(), all.max());
  for (u32 pm : {500u, 990u, 999u}) {
    EXPECT_EQ(a.percentile_permille(pm), all.percentile_permille(pm));
  }
}

TEST(Bytes, PackUnpackRoundTrip) {
  for (usize n : {0u, 1u, 3u, 4u, 5u, 100u, 1023u}) {
    std::vector<u8> in(n);
    fill_pattern(in, static_cast<u32>(n));
    const auto words = pack_words(in);
    EXPECT_EQ(words.size(), words_for_bytes(static_cast<u32>(n)));
    const auto out = unpack_bytes(words, n);
    EXPECT_EQ(in, out);
  }
}

TEST(Bytes, PatternCheckCatchesCorruption) {
  std::vector<u8> buf(64);
  fill_pattern(buf, 5);
  EXPECT_TRUE(check_pattern(buf, 5));
  EXPECT_FALSE(check_pattern(buf, 6));
  buf[33] ^= 1;
  EXPECT_FALSE(check_pattern(buf, 5));
}

TEST(Chart, RendersSeriesAndLegend) {
  AsciiChart c("test chart", "x", "y", 40, 10);
  c.add_series("up", 'U', {0, 10, 20}, {1, 5, 9});
  c.add_series("down", 'D', {0, 10, 20}, {9, 5, 1});
  std::ostringstream os;
  c.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("test chart"), std::string::npos);
  EXPECT_NE(out.find('U'), std::string::npos);
  EXPECT_NE(out.find('D'), std::string::npos);
  EXPECT_NE(out.find("U = up"), std::string::npos);
  // 11 grid rows + frame lines.
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), 12);
}

TEST(Chart, EmptyAndDegenerateInputsAreSafe) {
  std::ostringstream os;
  AsciiChart empty("e", "x", "y");
  empty.print(os);                       // no series: prints nothing
  EXPECT_TRUE(os.str().empty());
  AsciiChart flat("f", "x", "y", 20, 5);
  flat.add_series("s", 'S', {5}, {0});   // single point, zero range
  flat.print(os);
  EXPECT_NE(os.str().find('S'), std::string::npos);
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"b", "22"});
  std::ostringstream txt;
  t.print(txt);
  EXPECT_NE(txt.str().find("alpha"), std::string::npos);
  EXPECT_NE(txt.str().find("|"), std::string::npos);
}

}  // namespace
}  // namespace scrnet
