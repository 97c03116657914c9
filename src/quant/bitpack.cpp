#include "quant/bitpack.h"

#include <cstring>

#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::quant {

namespace {

void check_bits(int bits) {
  QMCU_REQUIRE(bits == 2 || bits == 4 || bits == 8,
               "packing supports 2, 4 and 8 bit fields");
}

// The scalar whole-byte body of unpack_into: each field shifted to the top
// of the byte, then arithmetic-shifted back down — sign extension without a
// branch, which the compiler vectorizes.
template <int kBits>
void unpack_whole_bytes(const std::uint8_t* __restrict bytes,
                        std::int64_t nbytes, std::int8_t* __restrict dst) {
  constexpr int kPerByte = 8 / kBits;
  for (std::int64_t k = 0; k < nbytes; ++k) {
    const std::uint8_t byte = bytes[k];
    for (int f = 0; f < kPerByte; ++f) {
      dst[k * kPerByte + f] = static_cast<std::int8_t>(
          static_cast<std::int8_t>(static_cast<std::uint8_t>(
              byte << (8 - kBits - f * kBits))) >>
          (8 - kBits));
    }
  }
}

// One field, sign-extended.
template <int kBits>
std::int8_t field(const std::uint8_t* bytes, std::int64_t i) {
  constexpr int kPerByte = 8 / kBits;
  const int shift = 8 - kBits - static_cast<int>(i % kPerByte) * kBits;
  return static_cast<std::int8_t>(
      static_cast<std::int8_t>(
          static_cast<std::uint8_t>(bytes[i / kPerByte] << shift)) >>
      (8 - kBits));
}

// unpack_into for one field width: the fields of a partly consumed leading
// byte, whole bytes, then the fields of the final byte.
template <int kBits>
void unpack_range(const std::uint8_t* bytes, std::int64_t first,
                  std::int64_t count, std::int8_t* dst,
                  const nn::ops::simd::SimdKernels* simd) {
  constexpr int kPerByte = 8 / kBits;
  std::int64_t i = first;
  const std::int64_t end = first + count;
  for (; i < end && i % kPerByte != 0; ++i) *dst++ = field<kBits>(bytes, i);
  // Whole bytes. The caller-provided vector expander (the Simd tier's
  // AVX2/NEON table; same field order and sign extension, bit-identical)
  // takes as many as its width allows; the scalar body finishes the rest.
  std::int64_t whole = (end - i) / kPerByte;
  if (simd != nullptr && simd->unpack_body != nullptr && whole > 0) {
    const std::int64_t done =
        simd->unpack_body(bytes + i / kPerByte, whole, kBits, dst);
    dst += done * kPerByte;
    i += done * kPerByte;
    whole -= done;
  }
  unpack_whole_bytes<kBits>(bytes + i / kPerByte, whole, dst);
  dst += whole * kPerByte;
  i += whole * kPerByte;
  for (; i < end; ++i) *dst++ = field<kBits>(bytes, i);
}

}  // namespace

std::int64_t packed_size_bytes(std::int64_t count, int bits) {
  check_bits(bits);
  QMCU_REQUIRE(count >= 0, "count must be non-negative");
  return (count * bits + 7) / 8;
}

std::int64_t packed_row_bytes(std::int64_t count, int bits) {
  QMCU_REQUIRE(bits == 2 || bits == 4, "packed rows are 2 or 4 bit");
  QMCU_REQUIRE(count >= 0, "count must be non-negative");
  const std::int64_t padded =
      (count + kPackedRowAlign - 1) / kPackedRowAlign * kPackedRowAlign;
  return padded * bits / 8;
}

void pack_into(const std::int8_t* src, std::int64_t count, int bits,
               std::uint8_t* dst) {
  QMCU_REQUIRE(bits == 2 || bits == 4, "pack_into handles 2 and 4 bit");
  QMCU_REQUIRE(count >= 0, "count must be non-negative");
  const auto* s = reinterpret_cast<const std::uint8_t*>(src);
  const int per_byte = 8 / bits;
  const std::int64_t whole = count / per_byte;
  // Whole bytes: fixed field positions, so the compiler vectorizes these
  // loops over the interleaved loads.
  if (bits == 4) {
    for (std::int64_t i = 0; i < whole; ++i) {
      dst[i] = static_cast<std::uint8_t>((s[2 * i] & 0x0F) |
                                         (s[2 * i + 1] << 4));
    }
  } else {
    for (std::int64_t i = 0; i < whole; ++i) {
      dst[i] = static_cast<std::uint8_t>(
          (s[4 * i] & 0x03) | ((s[4 * i + 1] & 0x03) << 2) |
          ((s[4 * i + 2] & 0x03) << 4) | (s[4 * i + 3] << 6));
    }
  }
  const std::int64_t rest = count - whole * per_byte;
  if (rest == 0) return;
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << bits) - 1);
  std::uint8_t last = 0;
  for (std::int64_t f = 0; f < rest; ++f) {
    last = static_cast<std::uint8_t>(
        last | ((s[whole * per_byte + f] & mask) << (f * bits)));
  }
  dst[whole] = last;
}

std::vector<std::uint8_t> pack(std::span<const std::int8_t> values, int bits) {
  check_bits(bits);
  const int per_byte = 8 / bits;
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << bits) - 1);
  const std::int32_t lo = -(1 << (bits - 1));
  const std::int32_t hi = (1 << (bits - 1)) - 1;

  std::vector<std::uint8_t> out(static_cast<std::size_t>(
      packed_size_bytes(static_cast<std::int64_t>(values.size()), bits)));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int32_t v = values[i];
    QMCU_REQUIRE(v >= lo && v <= hi, "value out of signed bit range");
    const std::size_t byte = i / static_cast<std::size_t>(per_byte);
    const int field = static_cast<int>(i % static_cast<std::size_t>(per_byte));
    out[byte] = static_cast<std::uint8_t>(
        out[byte] | ((static_cast<std::uint8_t>(v) & mask) << (field * bits)));
  }
  return out;
}

std::vector<std::int8_t> unpack(std::span<const std::uint8_t> packed,
                                std::int64_t count, int bits) {
  check_bits(bits);
  QMCU_REQUIRE(packed_size_bytes(count, bits) <=
                   static_cast<std::int64_t>(packed.size()),
               "packed buffer too small");
  std::vector<std::int8_t> out(static_cast<std::size_t>(count));
  unpack_into(packed, 0, count, bits, out.data());
  return out;
}

void unpack_into(std::span<const std::uint8_t> packed, std::int64_t first,
                 std::int64_t count, int bits, std::int8_t* dst,
                 const nn::ops::simd::SimdKernels* simd) {
  check_bits(bits);
  QMCU_REQUIRE(first >= 0 && count >= 0, "element range must be non-negative");
  QMCU_REQUIRE(packed_size_bytes(first + count, bits) <=
                   static_cast<std::int64_t>(packed.size()),
               "packed buffer too small");
  if (bits == 8) {
    std::memcpy(dst, packed.data() + first, static_cast<std::size_t>(count));
  } else if (bits == 4) {
    unpack_range<4>(packed.data(), first, count, dst, simd);
  } else {
    unpack_range<2>(packed.data(), first, count, dst, simd);
  }
}

}  // namespace qmcu::quant
