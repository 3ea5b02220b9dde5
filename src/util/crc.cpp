#include "util/crc.hpp"

#include <array>

namespace evm::util {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: row 0 is the
/// classic byte-wise table; row k advances a byte's contribution by k more
/// zero bytes, so eight table lookups fold eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32 = make_crc32_tables();

}  // namespace

std::uint16_t crc16(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  // Eight bytes per step; the bytes are assembled little-endian by hand, so
  // any alignment and host byte order give the byte-wise result.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                  std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = kCrc32[7][lo & 0xFF] ^ kCrc32[6][(lo >> 8) & 0xFF] ^
        kCrc32[5][(lo >> 16) & 0xFF] ^ kCrc32[4][lo >> 24] ^
        kCrc32[3][p[4]] ^ kCrc32[2][p[5]] ^ kCrc32[1][p[6]] ^ kCrc32[0][p[7]];
  }
  for (; n > 0; ++p, --n) c = kCrc32[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace evm::util
