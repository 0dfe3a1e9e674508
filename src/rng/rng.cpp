#include "rng/rng.h"

#include <cmath>

namespace raidrel::rng {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256::Xoshiro256(const std::array<std::uint64_t, 4>& state) noexcept
    : s_(state) {
  // An all-zero state is a fixed point; nudge it deterministically.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    std::uint64_t sm = 0x9E3779B97F4A7C15ULL;
    for (auto& word : s_) word = splitmix64(sm);
  }
}

std::uint64_t RandomStream::uniform_index(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire's multiply-shift rejection method, debiased.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t x = eng_();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    const auto low = static_cast<std::uint64_t>(m);
    if (low >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

double RandomStream::normal() noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  const double u1 = uniform_open();
  const double u2 = uniform_open();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

RandomStream StreamFactory::stream(std::uint64_t stream_id) const noexcept {
  // Derive a per-stream seed by feeding (master, id) through splitmix64
  // twice; the resulting 64-bit value then seeds the xoshiro state expansion.
  std::uint64_t sm = master_seed_;
  const std::uint64_t a = splitmix64(sm);
  sm ^= stream_id * 0xD1B54A32D192ED03ULL + 0x2545F4914F6CDD1DULL;
  const std::uint64_t b = splitmix64(sm);
  return RandomStream(a ^ rotl(b, 32) ^ (stream_id + 0x9E3779B97F4A7C15ULL));
}

}  // namespace raidrel::rng
