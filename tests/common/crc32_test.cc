#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rockhopper::common {
namespace {

// Bit-at-a-time CRC-32 straight from the polynomial: shares no table or
// slicing logic with the implementation under test.
uint32_t ReferenceCrc32(const unsigned char* data, size_t length,
                        uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < length; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> TestBytes(size_t n) {
  std::vector<unsigned char> bytes(n);
  uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = TestBytes(8 + 67);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 67; ++length) {
      EXPECT_EQ(Crc32(bytes.data() + offset, length),
                ReferenceCrc32(bytes.data() + offset, length, 0))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatchOneShot) {
  const std::vector<unsigned char> bytes = TestBytes(67);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
  for (uint32_t seed : {0x1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (size_t length = 0; length <= 67; ++length) {
      EXPECT_EQ(Crc32(bytes.data(), length, seed),
                ReferenceCrc32(bytes.data(), length, seed))
          << "seed " << seed << " length " << length;
    }
  }
}

}  // namespace
}  // namespace rockhopper::common
