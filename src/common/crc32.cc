#include "common/crc32.h"

#include <array>

namespace rockhopper::common {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] advances the CRC of byte b through k further zero bytes, so
// eight lookups fold eight input bytes at once.
Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

// Little-endian 32-bit load, independent of host byte order.
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const auto& t = kTables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; length >= 8; bytes += 8, length -= 8) {
    const uint32_t lo = crc ^ Load32(bytes);
    const uint32_t hi = Load32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++bytes, --length) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace rockhopper::common
