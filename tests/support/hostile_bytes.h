// Seeded byte mutator for the parsers' hostile-bytes tests: a bit flip, an
// inserted byte, a deleted byte or a truncation, chosen and placed by a
// seeded generator so every failure replays from its mutation index.
#pragma once

#include <cstddef>
#include <random>
#include <string>

namespace raidrel::test {

/// Apply one seeded mutation to `bytes` and return the first offset whose
/// byte differs from the original. An empty input gains one random byte.
inline std::size_t mutate_bytes(std::string& bytes, std::mt19937_64& rng) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<char>(rng() % 256));
    return 0;
  }
  std::size_t at = rng() % bytes.size();
  switch (rng() % 4) {
    case 0:
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << (rng() % 8)));
      break;
    case 1:
      at = rng() % (bytes.size() + 1);
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<char>(rng() % 256));
      break;
    case 2:
      bytes.erase(at, 1);
      break;
    default:
      bytes.resize(at);
      break;
  }
  return at;
}

}  // namespace raidrel::test
