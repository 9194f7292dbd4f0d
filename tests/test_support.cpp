#include "support/stats.hpp"
#include "support/striped_counter.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace {

TEST(Quantile, SingleElement) {
  const std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(support::quantile_sorted(v, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(support::quantile_sorted(v, 1.0), 3.0);
}

TEST(Quantile, EndpointsAreMinMax) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(support::quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(support::quantile_sorted(v, 1.0), 4.0);
}

TEST(Quantile, MedianInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(support::quantile_sorted(v, 0.5), 2.5);
}

TEST(Trimean, UniformSequence) {
  // Q1=2, Q2=3, Q3=4 -> (2 + 6 + 4)/4 = 3.
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(support::trimean(v), 3.0);
}

TEST(Trimean, RobustToOutlier) {
  // One enormous outlier barely moves the trimean (unlike the mean).
  std::vector<double> v{10.0, 11.0, 12.0, 13.0, 14.0};
  const double clean = support::trimean(v);
  v.back() = 1e9;
  const double dirty = support::trimean(v);
  EXPECT_NEAR(clean, dirty, 2.0);
  EXPECT_GT(support::mean(v), 1e8);
}

TEST(Trimean, UnsortedInput) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(support::trimean(v), 3.0);
}

TEST(Sampler, AccumulatesAndSummarizes) {
  support::Sampler s;
  EXPECT_TRUE(s.empty());
  for (const double x : {4.0, 2.0, 6.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.median(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(StripedCounter, SumsAddsFromEveryThread) {
  // More threads than stripes, so some threads share a stripe.
  support::StripedCounter c;
  constexpr int kThreads = 12;
  constexpr int kAdds = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) {
        c.add();
      }
      c.add(5);
    });
  }
  for (std::thread &w : workers) {
    w.join();
  }
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * (kAdds + 5));
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

} // namespace
