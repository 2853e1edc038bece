#include "sim/random.h"

#include <cmath>
#include <stdexcept>

namespace jtp::sim {

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
