// Deterministic random-number utilities.
//
// Each component derives an independent stream from a master seed with
// derive(), so adding a consumer never perturbs the draws seen by others —
// essential for the paper's "all protocols under the same conditions in the
// same run" methodology (§6.1.2).
//
// Every stream runs on Mt64, an MT19937-64 engine whose output sequence is
// the one the C++ standard fixes for that engine under the same seed, but
// which computes its state on demand. The simulator keeps one stream per node
// (mobility, CSMA backoff), per link (fading) and per directed link (loss),
// and most of them draw a handful of values; a batch engine would still pay
// 311 seeding steps when the stream is made and a full 312-word twist at
// its first draw.
//
// Mt64 pays only for what the draws so far have read:
//  - Construction stores word 0 of the seeded state; the other words are
//    seeded in order as the first block's twist reaches them.
//  - The first 312-word block is twisted one word per draw. Word k's new
//    value reads its own old value, word k+1 and word (k+156) mod 312.
//    Twisting in index order, words k+1 and k+156 are still old for
//    k < 156; for k >= 156, word k-156 is already new; word 311 reads the
//    new word 0. The batch twist also runs in index order in place, so it
//    reads exactly the same values: the output is the standard sequence.
//    Word k needs seeded words only up to k+156, so a stream that draws
//    d < 156 values costs about 156 + d seeding steps and d twist steps
//    instead of 311 + 312.
//  - Every later block is twisted all at once, in the batch engine's three
//    loops.
// Both twists run out of line (random.cc); a draw inside a twisted block
// compares two counters, loads one word and tempers it. The state stays
// trivially copyable and no larger than the standard library engine's, and
// every state word is value-initialized, so a copy never reads an
// indeterminate word.
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

// MT19937-64 computed on demand (see the header comment). A uniform random
// bit generator with the standard engine's result_type, min() and max(), so
// the std:: distributions draw from it exactly as they would from that
// engine.
class Mt64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (pos_ == twisted_) twist();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kN = 312;  // state words
  static constexpr std::uint32_t kM = 156;  // twist offset

  // Makes word pos_ ready: the next word of the first block, or the whole
  // next block once the first is done.
  void twist();

  result_type x_[kN]{};
  std::uint32_t pos_ = 0;      // next word of the block to return
  std::uint32_t twisted_ = 0;  // words of the block twisted so far
};

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

 private:
  Mt64 engine_;
  std::uint64_t seed_ = 0;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace jtp::sim
