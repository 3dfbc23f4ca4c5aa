#include "analysis/chunk_codec.hpp"

namespace wasp::analysis::codec {

std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 63; shift += 7) {
    WASP_CHECK_MSG(p < end, "varint runs past the encoded buffer");
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  WASP_CHECK_MSG(p < end, "varint runs past the encoded buffer");
  const std::uint64_t b = *p++;
  WASP_CHECK_MSG(b <= 1, "varint longer than 10 bytes or wider than 64 bits");
  return v | (b << 63);
}

}  // namespace wasp::analysis::codec
