#include "common/crc32.h"

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace impatience {
namespace {

// The textbook byte-at-a-time CRC32 (reflected, polynomial 0xEDB88320):
// the definition the sliced implementation must reproduce bit for bit.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(Crc32Test, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  // Every length across several 8-byte blocks plus every tail, at every
  // start alignment the 8-byte loads can see.
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 8, /*seed=*/42);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesByteWiseReferenceOnOneMebibyte) {
  const std::vector<uint8_t> bytes = RandomBytes(size_t{1} << 20, /*seed=*/7);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            ReferenceCrc32(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace impatience
