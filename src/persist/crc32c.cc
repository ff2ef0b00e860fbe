#include "persist/crc32c.h"

#include <array>

namespace rdfrel::persist {

namespace {

/// Table for the reflected Castagnoli polynomial, built once at startup.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint32_t Crc32c(std::string_view data, uint32_t init) {
  const auto& table = Table();
  uint32_t crc = ~init;
  for (char ch : data) {
    const uint32_t byte = static_cast<unsigned char>(ch);
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8u;
}

uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xA282EAD8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace rdfrel::persist
