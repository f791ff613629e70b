#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Little-endian integer primitives shared by every binary codec in the
/// library (the graph payload in graph/io.cpp and the lptspd frame codec
/// in net/wire.cpp). One definition keeps the two byte-compatible by
/// construction instead of by hand.
namespace lptsp::endian {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value & 0xff));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

/// Overwrite 4 bytes in place (patching a length or checksum slot
/// reserved earlier in a buffer).
inline void set_u32(std::uint8_t* data, std::uint32_t value) {
  for (int b = 0; b < 4; ++b) data[b] = static_cast<std::uint8_t>((value >> (8 * b)) & 0xff);
}

/// Unchecked reads: the caller has verified `width` bytes are available.
inline std::uint16_t get_u16(const std::uint8_t* data) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(data[0]) |
                                    (static_cast<std::uint16_t>(data[1]) << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* data) {
  std::uint32_t value = 0;
  for (int b = 3; b >= 0; --b) value = (value << 8) | data[b];
  return value;
}

inline std::uint64_t get_u64(const std::uint8_t* data) {
  std::uint64_t value = 0;
  for (int b = 7; b >= 0; --b) value = (value << 8) | data[b];
  return value;
}

// ---------------------------------------------------------------------------
// Bounds-checked reads for untrusted buffers: verify the bytes are there,
// read, advance `offset`. One definition shared by every binary decoder
// (graph/io, net/wire-adjacent codecs, store/kv, store/codec) so the
// validate-then-advance pattern cannot drift between them. Callers keep
// the invariant offset <= size.
// ---------------------------------------------------------------------------

inline bool try_get_u8(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                       std::uint8_t& value) {
  if (size - offset < 1) return false;
  value = data[offset];
  offset += 1;
  return true;
}

inline bool try_get_u32(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                        std::uint32_t& value) {
  if (size - offset < 4) return false;
  value = get_u32(data + offset);
  offset += 4;
  return true;
}

inline bool try_get_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                        std::uint64_t& value) {
  if (size - offset < 8) return false;
  value = get_u64(data + offset);
  offset += 8;
  return true;
}

}  // namespace lptsp::endian
