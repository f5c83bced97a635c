// sbx/util/random.h
//
// Deterministic, seedable random number generation for every stochastic
// component in sbx. All experiments in the paper reproduction are driven by
// explicit seeds so that any figure can be regenerated bit-for-bit.
//
// Design notes:
//  * Pcg32 is a small, fast, statistically strong generator (O'Neill, PCG
//    family, XSH-RR variant). We implement it ourselves rather than relying
//    on std::mt19937 so that streams are cheap to fork: every email, fold and
//    repetition gets an independent child stream derived from a master seed,
//    which keeps experiments order-independent and parallelizable.
//  * SplitMix64 is used to expand user-provided seeds into well-mixed state.
#pragma once

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/error.h"

namespace sbx::util {

/// SplitMix64 step: returns the next value of the sequence and advances
/// `state`. Used for seed expansion; passes BigCrush as a generator.
std::uint64_t splitmix64(std::uint64_t& state);

/// Minimal PCG32 (XSH-RR 64/32) engine. Satisfies
/// std::uniform_random_bit_generator so it can drive <random> distributions.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  /// Seeds the generator. `seed` selects the starting state, `stream`
  /// selects one of 2^63 distinct sequences.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 32 random bits.
  result_type operator()();

  /// Advances the engine `n` steps in O(log n) (PCG jump-ahead).
  void advance(std::uint64_t n);

  /// Equal engines produce equal sequences.
  bool operator==(const Pcg32&) const = default;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Convenience wrapper bundling a Pcg32 with the sampling operations the
/// corpus generator, attacks and evaluation harness need. Forkable: child
/// streams are independent of the parent and of each other.
class Rng {
 public:
  /// Creates a generator from a master seed.
  explicit Rng(std::uint64_t seed = 1);

  /// Derives an independent child generator. Children created with distinct
  /// `key`s (or successive calls) do not overlap with the parent stream.
  Rng fork(std::uint64_t key);

  /// Uniform 32 random bits (UniformRandomBitGenerator interface).
  using result_type = Pcg32::result_type;
  static constexpr result_type min() { return Pcg32::min(); }
  static constexpr result_type max() { return Pcg32::max(); }
  result_type operator()() { return engine_(); }

  /// Uniform integer in [lo, hi] (inclusive). Throws InvalidArgument if
  /// lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform size_t in [0, n). Throws InvalidArgument if n == 0.
  std::size_t index(std::size_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal draw parameterized by the underlying normal's mu/sigma.
  double log_normal(double mu, double sigma);

  /// Poisson draw with the given mean.
  int poisson(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  /// Order of the result is random. Throws InvalidArgument if k > n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Picks one element uniformly from a non-empty vector.
  template <typename T>
  const T& choice(const std::vector<T>& v) {
    if (v.empty()) throw InvalidArgument("Rng::choice: empty vector");
    return v[index(v.size())];
  }

  /// Equal full state (engine, seed, fork counter): equal draws and equal
  /// forks from here on.
  bool operator==(const Rng&) const = default;

 private:
  explicit Rng(Pcg32 engine) : engine_(engine) {}

  Pcg32 engine_;
  std::uint64_t fork_counter_ = 0;
  std::uint64_t seed_ = 0;
};

/// O(1) sampling from an arbitrary discrete distribution via the
/// Walker/Vose alias method. Build is O(n).
class AliasSampler {
 public:
  /// Builds the table from non-negative weights (need not be normalized).
  /// Throws InvalidArgument on an empty or all-zero weight vector.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws one index distributed proportionally to the build weights.
  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// Zipf-Mandelbrot sampler over ranks 0..n-1:
///   P(rank = k) proportional to 1 / (k + 1 + q)^s.
/// Backed by an AliasSampler, so draws are O(1). This is the workhorse
/// behind the synthetic ham/spam token distributions: natural-language word
/// frequencies are famously Zipfian, which is the property the paper's
/// dictionary attack exploits (rare tokens are easily poisoned).
class ZipfSampler {
 public:
  /// `n` ranks, exponent `s` > 0, flattening offset `q` >= 0.
  ZipfSampler(std::size_t n, double s, double q = 2.7);

  std::size_t sample(Rng& rng) const { return alias_.sample(rng); }
  std::size_t size() const { return alias_.size(); }

  /// The probability assigned to rank k (for tests / analysis).
  double probability(std::size_t k) const;

 private:
  std::vector<double> pmf_;
  AliasSampler alias_;
};

}  // namespace sbx::util
