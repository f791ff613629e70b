#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/endian.hpp"

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-record
/// checksum of the durable store's log framing (store/log.cpp). Kept next
/// to util/endian.hpp so any future binary codec that wants integrity
/// bytes uses the same polynomial by construction.
namespace lptsp::crc32 {

namespace detail {

/// Slicing-by-8 tables: tables()[0] is the classic byte-at-a-time table,
/// and tables()[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so eight table lookups consume eight input bytes at once.
inline const std::array<std::array<std::uint32_t, 256>, 8>& tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> kTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return kTables;
}

}  // namespace detail

/// One-shot checksum of a byte range. `seed` chains incremental updates:
/// crc32::of(b, n1+n2) == of(b+n1, n2, of(b, n1)).
inline std::uint32_t of(const std::uint8_t* data, std::size_t size, std::uint32_t seed = 0) {
  const auto& t = detail::tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ endian::get_u32(data);
    const std::uint32_t hi = endian::get_u32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace lptsp::crc32
