// arena_slab.h — a shared pool of run-arena blocks leased across models.
//
// Every compiled model owns (or leases) one arena sized to its own plan.
// When a serving deployment holds many compiled models — a ServingFrontend
// per model family, A/B variants, per-resolution builds — the per-model
// sum is wasted memory: at most one request runs per serving lane at a
// time, so only as many arenas are ever live as there are lanes. An ArenaSlab makes
// that sharing concrete: models acquire a lease for the duration of one
// run and release it on return, so the slab's high water is
//
//   max_arena_bytes x concurrent_runs   instead of   sum over models,
//
// and for parallel patch models the leased block covers the per-worker
// slices too (W x slice_stride + shared), i.e. the slab leases worker
// slices across models exactly as ROADMAP's "per-worker arena sharing"
// item asks.
//
// Blocks are recycled best-fit and grow-only: a release returns the block
// to the free list, an acquire reuses the smallest free block that fits or
// allocates a new one. Thread-safe; the lease itself is move-only RAII.
//
// A slab may carry a capacity (bytes it will ever back). Serving
// deployments use it as a hard memory budget: an acquire that cannot be
// satisfied without growing past the capacity throws ArenaSlabExhausted —
// a graceful, catchable error on the requesting lane (its future carries
// it), never a deadlock or a partial lease. Capacity 0 = unbounded.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/check.h"

namespace qmcu::nn {

// Thrown by ArenaSlab::acquire when satisfying the lease would grow the
// slab past its capacity. Distinct from QMCU_REQUIRE misuse errors so
// serving layers can shed the one request instead of treating it as a bug.
class ArenaSlabExhausted : public std::runtime_error {
 public:
  ArenaSlabExhausted(std::int64_t requested, std::int64_t capacity,
                     std::int64_t footprint)
      : std::runtime_error(
            "arena slab exhausted: lease of " + std::to_string(requested) +
            " B would grow footprint " + std::to_string(footprint) +
            " B past capacity " + std::to_string(capacity) + " B") {}
};

class ArenaSlab {
 public:
  ArenaSlab() = default;
  // `capacity_bytes` > 0 bounds the total bytes the slab will ever back;
  // 0 keeps the grow-only unbounded behaviour.
  explicit ArenaSlab(std::int64_t capacity_bytes)
      : capacity_(capacity_bytes) {
    QMCU_REQUIRE(capacity_bytes >= 0, "slab capacity must be non-negative");
  }
  ArenaSlab(const ArenaSlab&) = delete;
  ArenaSlab& operator=(const ArenaSlab&) = delete;

  // RAII over one leased block; empty leases are valid and inert. Moving
  // transfers the block; destruction (or release()) returns it to the
  // slab. A lease must not outlive its slab.
  class Lease {
   public:
    Lease() = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& other) noexcept
        : slab_(other.slab_), block_(other.block_), bytes_(other.bytes_) {
      other.slab_ = nullptr;
      other.block_ = -1;
      other.bytes_ = {};
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        slab_ = other.slab_;
        block_ = other.block_;
        bytes_ = other.bytes_;
        other.slab_ = nullptr;
        other.block_ = -1;
        other.bytes_ = {};
      }
      return *this;
    }
    ~Lease() { release(); }

    [[nodiscard]] std::span<std::uint8_t> bytes() const { return bytes_; }
    [[nodiscard]] bool empty() const { return slab_ == nullptr; }
    void release() {
      if (slab_ != nullptr) slab_->release_block(block_);
      slab_ = nullptr;
      block_ = -1;
      bytes_ = {};
    }

   private:
    friend class ArenaSlab;
    Lease(ArenaSlab* slab, int block, std::span<std::uint8_t> bytes)
        : slab_(slab), block_(block), bytes_(bytes) {}
    ArenaSlab* slab_ = nullptr;
    int block_ = -1;
    std::span<std::uint8_t> bytes_;
  };

  // Leases a block of at least `bytes` bytes (16-byte aligned storage, the
  // arena planners' alignment): the smallest free block that fits, or a
  // fresh allocation when none does.
  [[nodiscard]] Lease acquire(std::int64_t bytes) {
    QMCU_REQUIRE(bytes >= 0, "lease size must be non-negative");
    std::lock_guard<std::mutex> lock(mu_);
    int best = -1;
    for (int i = 0; i < static_cast<int>(blocks_.size()); ++i) {
      const Block& b = blocks_[static_cast<std::size_t>(i)];
      if (b.in_use || b.size < bytes) continue;
      if (best < 0 || b.size < blocks_[static_cast<std::size_t>(best)].size) {
        best = i;
      }
    }
    if (best < 0) {
      if (capacity_ > 0) {
        std::int64_t footprint = 0;
        for (const Block& b : blocks_) footprint += b.size;
        if (footprint + bytes > capacity_) {
          // No free block fits and growing would bust the budget: fail
          // this one lease loudly. The lock releases on unwind, leased
          // blocks are untouched, and a later release makes room — the
          // canonical recovery is "shed the request, retry later".
          throw ArenaSlabExhausted(bytes, capacity_, footprint);
        }
      }
      blocks_.push_back(Block{
          std::make_unique<std::uint8_t[]>(static_cast<std::size_t>(bytes)),
          bytes, false});
      best = static_cast<int>(blocks_.size()) - 1;
    }
    Block& b = blocks_[static_cast<std::size_t>(best)];
    b.in_use = true;
    leased_ += b.size;
    high_water_ = std::max(high_water_, leased_);
    return Lease(this, best,
                 std::span<std::uint8_t>(b.data.get(),
                                         static_cast<std::size_t>(b.size)));
  }

  // Total bytes backing the slab (free + leased blocks).
  [[nodiscard]] std::int64_t footprint_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  // Largest concurrently-leased byte count the slab ever saw — the number
  // the "max x lanes vs per-model sum" serving-memory math is about.
  [[nodiscard]] std::int64_t high_water_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  [[nodiscard]] int outstanding_leases() const {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const Block& b : blocks_) n += b.in_use ? 1 : 0;
    return n;
  }
  // The configured byte budget (0 = unbounded).
  [[nodiscard]] std::int64_t capacity_bytes() const { return capacity_; }

 private:
  friend class Lease;
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::int64_t size = 0;
    bool in_use = false;
  };

  void release_block(int index) {
    std::lock_guard<std::mutex> lock(mu_);
    Block& b = blocks_[static_cast<std::size_t>(index)];
    QMCU_ENSURE(b.in_use, "double release of a slab block");
    b.in_use = false;
    leased_ -= b.size;
  }

  mutable std::mutex mu_;
  std::vector<Block> blocks_;
  std::int64_t capacity_ = 0;  // 0 = unbounded
  std::int64_t leased_ = 0;
  std::int64_t high_water_ = 0;
};

}  // namespace qmcu::nn
