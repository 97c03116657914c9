#include "nn/checksum.h"

#include <array>
#include <cstring>

#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::nn {

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  // tables[t][b] = CRC of byte b followed by t zero bytes: each extra
  // table advances the remainder one byte without consuming input.
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t t = 1; t < 16; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// The folding body needs at least four 16-byte blocks.
constexpr std::size_t kFoldMinBytes = 64;

std::uint32_t load_word(const unsigned char* p) {
  std::uint32_t w;
  std::memcpy(&w, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap32(w);
#endif
  return w;
}

}  // namespace

std::uint32_t crc32_update_table(std::uint32_t state, const void* data,
                                 std::size_t size) {
  const auto& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state;
  while (size >= 16) {
    const std::uint32_t w0 = load_word(p) ^ c;
    const std::uint32_t w1 = load_word(p + 4);
    const std::uint32_t w2 = load_word(p + 8);
    const std::uint32_t w3 = load_word(p + 12);
    c = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
        t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^ t[11][w1 & 0xFFu] ^
        t[10][(w1 >> 8) & 0xFFu] ^ t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xFFu] ^ t[6][(w2 >> 8) & 0xFFu] ^ t[5][(w2 >> 16) & 0xFFu] ^
        t[4][w2 >> 24] ^ t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
        t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
    p += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

std::uint32_t crc32_table(const void* data, std::size_t size) {
  return crc32_update_table(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t state = 0xFFFFFFFFu;
  // Short inputs (streaming row fingerprints) skip the table lookup.
  if (size >= kFoldMinBytes) {
    const ops::simd::SimdKernels* k = ops::simd::kernels();
    if (k != nullptr && k->crc32_fold != nullptr) {
      const auto done = static_cast<std::size_t>(
          k->crc32_fold(&state, p, static_cast<std::int64_t>(size)));
      p += done;
      size -= done;
    }
  }
  return crc32_update_table(state, p, size) ^ 0xFFFFFFFFu;
}

const char* crc32_body_name() {
  const ops::simd::SimdKernels* k = ops::simd::kernels();
  return (k != nullptr && k->crc32_fold != nullptr) ? "pclmul"
                                                    : "slicing-by-16";
}

}  // namespace qmcu::nn
