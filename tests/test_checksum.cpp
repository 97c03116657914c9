// CRC32 bodies (nn/checksum.h): the carry-less-multiply folding entry of
// the AVX2 kernel tables must produce exactly the slicing-by-16 remainder
// for every length and alignment, since artifacts and streams baked by one
// body are verified by the other on another host or under
// QMCU_FORCE_SCALAR.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/checksum.h"
#include "nn/ops/simd/simd_kernels.h"
#include "nn/rng.h"
#include "scoped_env.h"

namespace qmcu {
namespace {

using nn::ops::simd::SimdKernels;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(n);
  nn::Rng rng(seed);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

// The folding entry the running CPU can execute, regardless of the force
// variables (null when the host lacks pclmul or the TU was compiled out).
decltype(SimdKernels::crc32_fold) host_fold() {
  return nn::ops::simd::crc32_fold_pclmul();
}

// One-shot CRC through `fold` for the whole blocks and slicing-by-16 for
// the tail: what nn::crc32 does with a table that carries the entry.
std::uint32_t crc32_folded(decltype(SimdKernels::crc32_fold) fold,
                           const std::uint8_t* p, std::size_t n) {
  std::uint32_t state = 0xFFFFFFFFu;
  const auto done =
      static_cast<std::size_t>(fold(&state, p, static_cast<std::int64_t>(n)));
  EXPECT_EQ(done % 16, 0u);
  EXPECT_TRUE(n < 64 ? done == 0 : done + 16 > n) << n;
  return nn::crc32_update_table(state, p + done, n - done) ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  const char* msg = "123456789";
  EXPECT_EQ(nn::crc32_table(msg, 9), 0xCBF43926u);
  EXPECT_EQ(nn::crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(nn::crc32_table(msg, 0), 0u);
  // Long enough for the folding body: 64 copies of the check string.
  std::vector<char> repeated;
  for (int i = 0; i < 64; ++i) repeated.insert(repeated.end(), msg, msg + 9);
  EXPECT_EQ(nn::crc32(repeated.data(), repeated.size()),
            nn::crc32_table(repeated.data(), repeated.size()));
}

TEST(Crc32, FoldMatchesTableAtEveryLengthAndOffset) {
  const auto fold = host_fold();
  if (fold == nullptr) GTEST_SKIP() << "no pclmul folding body on this host";
  const std::vector<std::uint8_t> bytes = random_bytes(4096 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(crc32_folded(fold, p, n), nn::crc32_table(p, n))
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(Crc32, FoldMatchesTableOnLargeBuffers) {
  const auto fold = host_fold();
  if (fold == nullptr) GTEST_SKIP() << "no pclmul folding body on this host";
  for (const std::size_t n : {std::size_t{64} << 10, std::size_t{1} << 20,
                              std::size_t{3400} * 1000 + 7}) {
    const std::vector<std::uint8_t> bytes = random_bytes(n, n);
    EXPECT_EQ(crc32_folded(fold, bytes.data(), n),
              nn::crc32_table(bytes.data(), n))
        << n;
  }
}

// nn::crc32 reaches the folding body through the live kernel table and
// agrees with slicing-by-16; under QMCU_FORCE_SCALAR the table is gone and
// slicing-by-16 runs.
TEST(Crc32, DispatchFollowsTheKernelTable) {
  const std::vector<std::uint8_t> bytes = random_bytes(100000, 2);
  const std::uint32_t want = nn::crc32_table(bytes.data(), bytes.size());
  {
    const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
    EXPECT_STREQ(nn::crc32_body_name(), "slicing-by-16");
    EXPECT_EQ(nn::crc32(bytes.data(), bytes.size()), want);
  }
  const test::ScopedEnv native("QMCU_FORCE_SCALAR", "0");
  const SimdKernels* k = nn::ops::simd::kernels();
  const bool folding = k != nullptr && k->crc32_fold != nullptr;
  EXPECT_STREQ(nn::crc32_body_name(), folding ? "pclmul" : "slicing-by-16");
  if (k != nullptr && host_fold() != nullptr) {
    EXPECT_TRUE(folding) << "table " << k->name << " lacks crc32_fold";
  }
  EXPECT_EQ(nn::crc32(bytes.data(), bytes.size()), want);
}

}  // namespace
}  // namespace qmcu
