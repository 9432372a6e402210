#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace mvs::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BernoulliClampsOutOfRange) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 10000; ++i) s.add(rng.poisson(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.15);
}

TEST(Rng, PoissonZeroMeanYieldsZero) {
  Rng rng(17);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(23);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(31);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.uniform() == child.uniform()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

TEST(SampleSet, EmptyIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(sw.elapsed_ms(), 0.0);
}

TEST(Table, AlignsAndPads) {
  Table t({"a", "bb"});
  t.add_row({"1"});  // short row is padded
  t.add_row({"22", "333"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace mvs::util
