#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/log.h"
#include "common/random.h"
#include "common/shared.h"
#include "common/violation.h"

namespace ratc {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.range(3, 6));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5, 6}));
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialPositiveAndRoughMean) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    Duration d = rng.exponential(10.0);
    EXPECT_GE(d, 1u);
    sum += static_cast<double>(d);
  }
  EXPECT_NEAR(sum / 100000.0, 10.0, 1.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitIndependent) {
  Rng a(23);
  Rng b = a.split();
  // The split stream should not track the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Zipfian, SkewsTowardsLowRanks) {
  Rng rng(29);
  Zipfian z(1000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  // Rank 0 should be far more popular than rank 500.
  EXPECT_GT(counts[0], 100);
  EXPECT_GT(counts[0], counts[500] * 5);
  for (const auto& [k, _] : counts) EXPECT_LT(k, 1000u);
}

TEST(Zipfian, UniformishWhenThetaSmall) {
  Rng rng(31);
  Zipfian z(10, 0.01);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [_, c] : counts) EXPECT_GT(c, 5000);
}

TEST(FatalDeathTest, WritesItsMessageWithLoggingOff) {
  set_log_level(LogLevel::kOff);
  EXPECT_DEATH(RATC_FATAL("index diverged at slot " << 7), "index diverged at slot 7");
}

TEST(ViolationSink, CollectsAndSummarizes) {
  ViolationSink sink;
  EXPECT_TRUE(sink.empty());
  sink.report(5, "Invariant4b", "two decisions");
  sink.report(9, "Invariant2", "prefix mismatch");
  EXPECT_FALSE(sink.empty());
  ASSERT_EQ(sink.all().size(), 2u);
  EXPECT_EQ(sink.all()[0].invariant, "Invariant4b");
  EXPECT_NE(sink.summary().find("prefix mismatch"), std::string::npos);
  sink.clear();
  EXPECT_TRUE(sink.empty());
}

struct Pair {
  std::vector<int> values;
  friend bool operator==(const Pair&, const Pair&) = default;
};

TEST(Shared, DefaultIsOneStaticEpsilonNeverNull) {
  Shared<Pair> a, b;
  ASSERT_NE(a.get(), nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(a->values.empty());
  Shared<Pair> moved_from = Pair{{1, 2}};
  Shared<Pair> c = std::move(moved_from);
  EXPECT_EQ(moved_from.get(), a.get());  // a moved-from handle is ε again
  EXPECT_EQ(c->values.size(), 2u);
}

TEST(Shared, CopiesShareOneObjectAndCompareByValue) {
  Shared<Pair> a = Pair{{1, 2, 3}};
  Shared<Pair> b = a;
  EXPECT_EQ(a.get(), b.get());
  Shared<Pair> c = Pair{{1, 2, 3}};
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a == Shared<Pair>());
  b = Shared<Pair>();
  EXPECT_EQ(a->values.size(), 3u);  // a still holds its object
}

TEST(FlatMap, KeepsKeyOrderAcrossAppendsInsertsAndErases) {
  FlatMap<int, int> m;
  m[5] = 50;
  m[9] = 90;  // append
  m[1] = 10;  // insert in front
  EXPECT_TRUE(m.emplace(7, 70));
  EXPECT_FALSE(m.emplace(7, 71));
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_TRUE(m.contains(7));
  EXPECT_FALSE(m.contains(5));
  std::vector<std::pair<int, int>> seen(m.begin(), m.end());
  EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{{1, 10}, {7, 70}, {9, 90}}));
  EXPECT_EQ(m.size(), 3u);
}

}  // namespace
}  // namespace ratc
