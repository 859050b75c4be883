#pragma once
// Deterministic random number generation.
//
// All stochastic parts of perftrack (the workload simulator, synthetic test
// fixtures) draw from Rng so that every experiment is reproducible from a
// seed. Rng wraps a 64-bit Mersenne Twister and exposes the handful of
// distributions the simulator needs. Independent sub-streams can be forked
// with derive(), which mixes a tag into the parent seed — forked streams do
// not consume numbers from the parent, so adding a phase to an application
// model never perturbs the random values of the other phases.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace perftrack {

namespace detail {

/// std::mt19937_64's exact output sequence (fixed by the C++ standard), with
/// the seeding recurrence and the state twist run only as far as the draws
/// taken. The simulator derives one stream per burst and takes about eight
/// draws from it; the standard engine would seed all 312 state words and
/// twist all 312 before the first draw.
///
/// Why the sequence is unchanged: twisted word k (k < 156) depends only on
/// the seeded words k, k+1 and k+156, and seeded word i only on words before
/// it. So draw j < 156 seeds through word j+156 and twists word j alone.
/// Draw 156 finds every word seeded, twists words 156..311 exactly as the
/// standard twist's second half does (reading words 0..155 already
/// twisted), and from there on the engine regenerates all 312 words every
/// 312 draws like the standard one.
class LazyMt19937_64 {
public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { state_[0] = seed; }

  result_type operator()() {
    if (next_ == twisted_) twist_next();
    return temper(state_[next_++]);
  }

private:
  static constexpr std::size_t kWords = 312;  // n
  static constexpr std::size_t kShift = 156;  // m

  /// Make word `next_` ready: the next word of the first round, the rest
  /// of the first round, or a whole new round.
  void twist_next() {
    if (next_ == kWords) {
      twist(0, kWords);
      next_ = 0;
    } else if (next_ < kShift) {
      seed_through(next_ + kShift);
      twist(next_, next_ + 1);
      twisted_ = next_ + 1;
    } else {
      twist(kShift, kWords);
      twisted_ = kWords;
    }
  }

  /// Run the seeding recurrence up to and including word `last`.
  void seed_through(std::size_t last) {
    for (; seeded_ <= last; ++seeded_) {
      const std::uint64_t prev = state_[seeded_ - 1];
      state_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                        static_cast<std::uint64_t>(seeded_);
    }
  }

  /// Twist words [begin, end) in order, as the standard twist does.
  void twist(std::size_t begin, std::size_t end) {
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint64_t y =
          (state_[k] & kUpper) | (state_[(k + 1) % kWords] & ~kUpper);
      state_[k] = state_[(k + kShift) % kWords] ^ (y >> 1) ^
                  ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
    }
  }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  std::array<std::uint64_t, kWords> state_{};
  std::size_t seeded_ = 1;   ///< words of the seeding recurrence computed
  std::size_t twisted_ = 0;  ///< words of the current round ready to draw
  std::size_t next_ = 0;     ///< index of the next word to draw
};

}  // namespace detail

class Rng {
public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Fork an independent stream identified by (tag, index).
  /// Uses splitmix64-style mixing so nearby tags decorrelate.
  Rng derive(std::string_view tag, std::uint64_t index = 0) const {
    std::uint64_t h = seed_;
    for (char c : tag) h = mix(h ^ static_cast<std::uint64_t>(c));
    h = mix(h ^ index);
    return Rng(h);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    if (stddev <= 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Normal truncated to [lo, hi] by clamping (adequate for mild noise).
  double normal_clamped(double mean, double stddev, double lo, double hi) {
    double v = normal(mean, stddev);
    if (v < lo) return lo;
    if (v > hi) return hi;
    return v;
  }

  /// Lognormal multiplicative jitter around 1.0: exp(N(0, sigma)).
  double jitter(double sigma) {
    if (sigma <= 0.0) return 1.0;
    return std::exp(std::normal_distribution<double>(0.0, sigma)(engine_));
  }

  /// Bernoulli trial.
  bool chance(double probability) {
    return std::bernoulli_distribution(probability)(engine_);
  }

private:
  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finaliser.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t seed_;
  detail::LazyMt19937_64 engine_;
};

}  // namespace perftrack
