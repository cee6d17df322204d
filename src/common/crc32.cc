#include "common/crc32.h"

#include <array>

#include "common/little_endian.h"

namespace impatience {

namespace {

// Slicing-by-8 tables. tables[0] is the classic byte-at-a-time table;
// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups — one per input byte, each pre-shifted by its distance from the
// end of the 8-byte block — advance the CRC by a whole block at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const CrcTables& t = Tables();
  uint32_t crc = 0xFFFFFFFFu;
  // The reflected CRC consumes bytes in stream order, low byte first, so
  // a little-endian load lines the block up with the register.
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe<uint32_t>(data);
    const uint32_t hi = LoadLe<uint32_t>(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace impatience
