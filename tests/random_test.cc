#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <type_traits>

namespace jtp::sim {
namespace {

static_assert(sizeof(Mt64) <= sizeof(std::mt19937_64),
              "the on-demand engine must not outgrow the standard one");
static_assert(std::is_trivially_copyable_v<Rng>,
              "Rng lives in PackedLinkTable slots");

// Seeds that exercise the seeding recurrence's edges, and draw counts on
// both sides of every point where the first block's on-demand seeding and
// twisting change course (word 155 reads the last seeded word, word 311
// wraps to word 0) and of the later batch twists.
constexpr std::uint64_t kSeeds[] = {0, 1, 5489, 0xdeadbeef,
                                    ~std::uint64_t{0}};
constexpr int kPrefixes[] = {1, 155, 156, 157, 311, 312, 313, 624, 625, 10000};

TEST(Mt64, MatchesTheStandardEngineOverEveryPrefix) {
  for (std::uint64_t seed : kSeeds) {
    for (int prefix : kPrefixes) {
      Mt64 e(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < prefix; ++i)
        ASSERT_EQ(e(), ref()) << "seed " << seed << " draw " << i;
      // A copy taken here continues the sequence, across a block boundary.
      Mt64 copy = e;
      for (int i = 0; i < 700; ++i)
        ASSERT_EQ(copy(), ref())
            << "seed " << seed << " copy after " << prefix << " draw " << i;
    }
  }
}

TEST(Mt64, TenThousandthDrawFromTheDefaultSeed) {
  // The standard's required value for mt19937_64 ([rand.predef]).
  Mt64 e(5489);
  for (int i = 1; i < 10000; ++i) e();
  EXPECT_EQ(e(), 9981545732273789042ULL);
}

TEST(Rng, DrawsEqualTheStandardDistributionsOverTheStandardEngine) {
  for (std::uint64_t seed : {0ULL, 7ULL, 101000000ULL}) {
    Rng r(seed);
    std::mt19937_64 ref(splitmix64(seed));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    // Interleaved so every kind of draw lands in the first block, across
    // its seeding edge and in later blocks.
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(r.uniform(), unit(ref));
      ASSERT_EQ(r.uniform(-2.0, 3.5),
                std::uniform_real_distribution<double>(-2.0, 3.5)(ref));
      ASSERT_EQ(r.exponential(3.0), -3.0 * std::log(unit(ref)));
      ASSERT_EQ(r.normal(1.0, 0.5),
                std::normal_distribution<double>(1.0, 0.5)(ref));
      ASSERT_EQ(r.integer(1000),
                std::uniform_int_distribution<std::uint64_t>(0, 999)(ref));
      ASSERT_EQ(r.integer(~std::uint64_t{0}),
                std::uniform_int_distribution<std::uint64_t>(
                    0, ~std::uint64_t{0} - 1)(ref));
      // Trials until the first success of the same Bernoulli draws.
      int trials = 1;
      while (!std::bernoulli_distribution(0.3)(ref)) ++trials;
      ASSERT_EQ(r.geometric(0.3), trials);
      ASSERT_EQ(r.bernoulli(0.6), std::bernoulli_distribution(0.6)(ref));
    }
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, DeriveIsDeterministic) {
  Rng a(7), b(7);
  Rng da = a.derive("mac", 3);
  Rng db = b.derive("mac", 3);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(da.uniform(), db.uniform());
}

TEST(Rng, DerivedStreamsAreIndependentOfConsumption) {
  // Consuming from the parent must not perturb an already-derived child.
  Rng a(7);
  Rng child1 = a.derive("x");
  const double first = child1.uniform();
  Rng b(7);
  for (int i = 0; i < 10; ++i) b.uniform();
  Rng child2 = b.derive("x");
  EXPECT_DOUBLE_EQ(child2.uniform(), first);
}

TEST(Rng, DifferentLabelsGiveDifferentStreams) {
  Rng a(7);
  Rng x = a.derive("x");
  Rng y = a.derive("y");
  EXPECT_NE(x.uniform(), y.uniform());
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, GeometricMeanMatches) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.geometric(0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.2);  // mean 1/p
}

TEST(Rng, GeometricAlwaysAtLeastOne) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.geometric(0.9), 1);
}

TEST(Rng, IntegerBounded) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.integer(10), 10u);
  EXPECT_THROW(r.integer(0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Splitmix, AvalanchesAdjacentInputs) {
  // Hamming distance of outputs for adjacent inputs should be near 32.
  int total = 0;
  for (std::uint64_t x = 0; x < 100; ++x) {
    const std::uint64_t d = splitmix64(x) ^ splitmix64(x + 1);
    total += static_cast<int>(__builtin_popcountll(d));
  }
  EXPECT_NEAR(total / 100.0, 32.0, 6.0);
}

TEST(HashLabel, DistinctLabelsDistinctHashes) {
  EXPECT_NE(hash_label("alpha"), hash_label("beta"));
  EXPECT_NE(hash_label(""), hash_label("a"));
  EXPECT_EQ(hash_label("mac"), hash_label("mac"));
}

}  // namespace
}  // namespace jtp::sim
