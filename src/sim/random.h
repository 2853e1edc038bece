// Deterministic random-number utilities.
//
// Each component derives an independent stream from a master seed with
// derive(), so adding a consumer never perturbs the draws seen by others —
// essential for the paper's "all protocols under the same conditions in the
// same run" methodology (§6.1.2).
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace jtp::sim {

// splitmix64: fast, well-mixed 64-bit hash used for stream derivation, for
// the TDMA pseudo-random schedule, and for the bucket keys of the packet
// cache and the link table. Inline because those two hash on every lookup.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stable 64-bit hash of a label, for name-derived streams.
std::uint64_t hash_label(std::string_view label);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)), seed_(seed) {}

  // Derives an independent child stream; identical (seed, label, index)
  // always yields the same stream.
  Rng derive(std::string_view label, std::uint64_t index = 0) const;

  double uniform() { return uniform_(engine_); }                  // [0,1)
  double uniform(double lo, double hi);                           // [lo,hi)
  double exponential(double mean);
  double normal(double mean, double stddev);
  std::uint64_t integer(std::uint64_t bound);                     // [0,bound)
  int geometric(double p_success);  // trials until first success, >= 1
  bool bernoulli(double p) { return uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  Rng(std::mt19937_64 engine, std::uint64_t seed)
      : engine_(engine), seed_(seed) {}
  std::mt19937_64 engine_;
  std::uint64_t seed_ = 0;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};

  friend class RngFactory;
};

}  // namespace jtp::sim
