#include "sim/random.h"

#include <cmath>
#include <stdexcept>

namespace jtp::sim {

namespace {

// MT19937-64's twist constants (r = 31, a) and its seeding multiplier f.
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kSeedMul = 6364136223846793005ULL;

// The twisted value of a word from its old value, its successor and the
// word the twist offset away. The matrix term is a mask, not a branch: the
// low bit of y is a coin flip, which a branch would mispredict half the
// time.
inline std::uint64_t twisted(std::uint64_t word, std::uint64_t next,
                             std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

void Mt64::twist() {
  if (twisted_ == kN) {
    // A later block: the batch twist, all 312 words in index order.
    for (std::uint32_t k = 0; k < kN - kM; ++k)
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
    for (std::uint32_t k = kN - kM; k < kN - 1; ++k)
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
    pos_ = 0;
    return;
  }
  // The first block, one word per draw. Word k reads words k + 1 and
  // (k + kM) mod kN, so the seeding runs on through word k + kM while that
  // is in range; the first draw seeds words 1..kM.
  const std::uint32_t k = twisted_;
  if (k < kN - kM)
    for (std::uint32_t i = k == 0 ? 1 : k + kM; i <= k + kM; ++i)
      x_[i] = kSeedMul * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  x_[k] = twisted(x_[k], x_[k + 1 < kN ? k + 1 : 0],
                  x_[k < kN - kM ? k + kM : k + kM - kN]);
  twisted_ = k + 1;
}

std::uint64_t hash_label(std::string_view label) {
  // FNV-1a, then one splitmix round for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

Rng Rng::derive(std::string_view label, std::uint64_t index) const {
  const std::uint64_t child =
      splitmix64(seed_ ^ hash_label(label) ^ splitmix64(index + 1));
  Rng r(child);
  r.seed_ = child;
  return r;
}

double Rng::uniform(double lo, double hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform: hi < lo");
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("Rng::exponential: mean <= 0");
  double u = uniform();
  if (u <= 0) u = 1e-300;  // avoid log(0)
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

std::uint64_t Rng::integer(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::integer: bound == 0");
  std::uniform_int_distribution<std::uint64_t> d(0, bound - 1);
  return d(engine_);
}

int Rng::geometric(double p_success) {
  if (p_success <= 0.0 || p_success > 1.0)
    throw std::invalid_argument("Rng::geometric: p out of (0,1]");
  int n = 1;
  while (!bernoulli(p_success)) ++n;
  return n;
}

}  // namespace jtp::sim
