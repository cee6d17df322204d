// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
// discipline shared by the wire protocol and the on-disk run-file format.
// One implementation so a frame checked on the wire and a block checked on
// replay disagree about nothing.
//
// Computed slicing-by-8: eight 256-entry tables advance the CRC by eight
// input bytes per step, with a byte-at-a-time tail. The result is the
// byte-wise table CRC's, bit for bit (tests/common/crc32_test.cc checks
// it against a byte-wise reference).

#ifndef IMPATIENCE_COMMON_CRC32_H_
#define IMPATIENCE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace impatience {

// CRC32 over `n` bytes.
uint32_t Crc32(const uint8_t* data, size_t n);

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_CRC32_H_
