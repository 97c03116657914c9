// ArenaSlab (nn/runtime/arena_slab.h) as a serving memory budget: a
// capacity-carrying slab refuses leases past its capacity with the
// distinct ArenaSlabExhausted — never a deadlock or a partial lease — and
// recovers as soon as a holder releases.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "nn/runtime/arena_slab.h"

namespace qmcu {
namespace {

// A capacity-carrying slab is the serving memory budget: acquires beyond
// it fail with the distinct ArenaSlabExhausted (no deadlock, no partial
// lease), and a release makes room again.
TEST(ArenaSlab, CapacityBoundsAcquires) {
  nn::ArenaSlab slab(1024);
  EXPECT_EQ(slab.capacity_bytes(), 1024);
  // A single over-budget lease fails before any allocation happens.
  EXPECT_THROW((void)slab.acquire(2048), nn::ArenaSlabExhausted);
  EXPECT_EQ(slab.footprint_bytes(), 0);

  auto a = slab.acquire(512);
  auto b = slab.acquire(512);
  EXPECT_EQ(slab.footprint_bytes(), 1024);
  // Budget spent: even one more byte is refused while both are live.
  EXPECT_THROW((void)slab.acquire(1), nn::ArenaSlabExhausted);
  // The failed acquire changed nothing — existing leases still valid.
  EXPECT_EQ(slab.outstanding_leases(), 2);

  // Releasing frees a block for reuse (best-fit, no new allocation).
  a.release();
  auto c = slab.acquire(256);
  EXPECT_EQ(slab.footprint_bytes(), 1024);
  b.release();
  c.release();
  EXPECT_EQ(slab.outstanding_leases(), 0);
}

// Concurrent leasing against an exhausted slab: every contender gets the
// graceful error (never blocks), the holder's lease is untouched, and the
// moment it releases the same threads' retries succeed.
TEST(ArenaSlab, ConcurrentExhaustionFailsGracefullyThenRecovers) {
  nn::ArenaSlab slab(1024);
  auto holder = slab.acquire(1024);  // the whole budget

  constexpr int kThreads = 4;
  std::atomic<int> exhausted{0};
  {
    std::vector<std::thread> contenders;
    for (int t = 0; t < kThreads; ++t) {
      contenders.emplace_back([&] {
        try {
          (void)slab.acquire(256);
        } catch (const nn::ArenaSlabExhausted&) {
          exhausted.fetch_add(1);
        }
      });
    }
    for (std::thread& t : contenders) t.join();
  }
  // Joining at all proves no contender deadlocked; all were shed.
  EXPECT_EQ(exhausted.load(), kThreads);
  EXPECT_EQ(slab.outstanding_leases(), 1);
  EXPECT_EQ(slab.footprint_bytes(), 1024);

  holder.release();
  // Room again: concurrent retries all succeed (serially reusing the free
  // 1024-byte block and allocating nothing new past it is best-fit's
  // business; what matters here is no error and balanced accounting).
  std::atomic<int> succeeded{0};
  {
    std::vector<std::thread> retries;
    for (int t = 0; t < kThreads; ++t) {
      retries.emplace_back([&] {
        try {
          auto lease = slab.acquire(128);
          succeeded.fetch_add(1);
        } catch (const nn::ArenaSlabExhausted&) {
        }
      });
    }
    for (std::thread& t : retries) t.join();
  }
  EXPECT_GE(succeeded.load(), 1);
  EXPECT_EQ(slab.outstanding_leases(), 0);
  EXPECT_LE(slab.footprint_bytes(), slab.capacity_bytes());
}

}  // namespace
}  // namespace qmcu
