// Little-endian loads and stores for the byte formats the system writes:
// wire frames, run files, manifests, and CRC input. The encoding is
// little-endian on every host. On little-endian hosts a load or store is
// one unaligned memcpy (a single move instruction); elsewhere it falls
// back to byte shifts. Never a cast through a misaligned pointer.

#ifndef IMPATIENCE_COMMON_LITTLE_ENDIAN_H_
#define IMPATIENCE_COMMON_LITTLE_ENDIAN_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace impatience {

template <typename U>
inline U LoadLe(const uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    U v;
    std::memcpy(&v, p, sizeof(U));
    return v;
  } else {
    U v = 0;
    for (int i = static_cast<int>(sizeof(U)) - 1; i >= 0; --i) {
      v = static_cast<U>((v << 8) | p[i]);
    }
    return v;
  }
}

template <typename U>
inline void StoreLe(uint8_t* p, U v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(U));
  } else {
    for (size_t i = 0; i < sizeof(U); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_LITTLE_ENDIAN_H_
