// Random number generation for the Monte Carlo engine.
//
// Requirements that std::mt19937 does not satisfy cleanly:
//  * cheap creation of many statistically independent streams, one per
//    simulation trial, so multi-threaded runs are reproducible regardless of
//    how trials are scheduled onto threads;
//  * a small, fast state (the simulator creates one stream per trial).
//
// We use xoshiro256++ (Blackman & Vigna) seeded via splitmix64, the seeding
// procedure its authors recommend. Independent streams are derived by hashing
// (master seed, stream id) through splitmix64, which in practice gives
// decorrelated streams.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace raidrel::rng {

/// splitmix64 step: advances `state` and returns the next output.
/// Used for seeding and for deriving per-stream seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator, so it
/// can be used with <random> distributions if desired.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 so that no part of the state is zero-prone.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Construct directly from a full 256-bit state (must not be all-zero).
  explicit Xoshiro256(const std::array<std::uint64_t, 4>& state) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  // Inline: one call sits under every sample the Monte Carlo engine draws.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return s_;
  }

  /// Mutable 256-bit state, for the bulk uniform fill (rng/bulk.h): the
  /// fill gathers many engines' states, steps them all through one SIMD
  /// xoshiro round, and scatters them back — bit-identical per engine to
  /// calling operator()(). Not a general mutation hook; leaving a state
  /// all-zero breaks the generator.
  [[nodiscard]] std::array<std::uint64_t, 4>& state_mut() noexcept {
    return s_;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// A random stream: an engine plus convenience draws used by the simulator.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) noexcept : eng_(seed) {}
  explicit RandomStream(Xoshiro256 eng) noexcept : eng_(eng) {}

  // The four draws below back every event of the Monte Carlo hot loop, so
  // they are defined inline; the arithmetic is unchanged.

  /// Uniform double in the open interval (0, 1). Never returns 0 or 1, so
  /// it is safe to pass through quantile functions (log of 0 avoided).
  double uniform_open() noexcept { return open_unit(eng_() >> 12); }

  /// The value uniform_open() returns for the 52-bit index `index` (the
  /// top 52 bits of one engine word): callers that must inspect the index
  /// before transforming it (CompiledLaw::sample_censored) draw the word
  /// with next_u64() and map it here, bit for bit.
  static double open_unit(std::uint64_t index) noexcept {
    // (0,1): 52 bits + 0.5 ulp offset; infinitesimally biased but never 0/1.
    return (static_cast<double>(index) + 0.5) * 0x1.0p-52;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 top bits -> double in [0,1).
    return static_cast<double>(eng_() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard exponential variate (mean 1).
  double exponential() noexcept { return -std::log(uniform_open()); }

  /// Standard normal variate (Box–Muller with caching).
  double normal() noexcept;

  /// Bernoulli draw.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  std::uint64_t next_u64() noexcept { return eng_(); }

  Xoshiro256& engine() noexcept { return eng_; }

 private:
  Xoshiro256 eng_;
  double cached_normal_ = 0.0;
  bool have_cached_normal_ = false;
};

/// Factory for independent streams derived from one master seed.
/// stream(i) is a pure function of (master_seed, i): trials can be handed to
/// threads in any order and the simulation stays bit-reproducible.
class StreamFactory {
 public:
  explicit StreamFactory(std::uint64_t master_seed) noexcept
      : master_seed_(master_seed) {}

  [[nodiscard]] RandomStream stream(std::uint64_t stream_id) const noexcept;

  [[nodiscard]] std::uint64_t master_seed() const noexcept {
    return master_seed_;
  }

 private:
  std::uint64_t master_seed_;
};

}  // namespace raidrel::rng
