#pragma once
// Hardware counter vectors.
//
// Every CPU burst carries the raw counters a PAPI-style measurement layer
// would attach: instructions, cycles and the cache/TLB miss counts used by
// the paper's case studies. The set is a fixed enum rather than an open map:
// the pipeline iterates counters in hot loops and a flat array keeps that
// branch-free and cache-friendly.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace perftrack::trace {

enum class Counter : std::uint8_t {
  Instructions = 0,
  Cycles,
  L1DMisses,
  L2Misses,
  TlbMisses,
};

inline constexpr std::size_t kCounterCount = 5;

/// Stable short mnemonic ("PAPI-like") for a counter.
std::string_view counter_name(Counter c);

/// Fixed-size vector of raw counter values for one burst.
class CounterSet {
public:
  CounterSet() { values_.fill(0.0); }

  double get(Counter c) const { return values_[index(c)]; }
  void set(Counter c, double value) { values_[index(c)] = value; }
  void add(Counter c, double delta) { values_[index(c)] += delta; }

  /// Element-wise sum, used when aggregating bursts into clusters.
  CounterSet& operator+=(const CounterSet& other) {
    for (std::size_t i = 0; i < kCounterCount; ++i)
      values_[i] += other.values_[i];
    return *this;
  }

  bool operator==(const CounterSet&) const = default;

private:
  static std::size_t index(Counter c) { return static_cast<std::size_t>(c); }
  std::array<double, kCounterCount> values_;
};

}  // namespace perftrack::trace
