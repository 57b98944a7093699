#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mfpa {
namespace {

TEST(ParallelForBlocks, OneContiguousBlockPerWorker) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  parallel_for_blocks(10, 4, [&](std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(mu);
    blocks.emplace_back(lo, hi);
  });
  std::sort(blocks.begin(), blocks.end());
  // [w*n/W, (w+1)*n/W) for n = 10, W = 4.
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {0, 2}, {2, 5}, {5, 7}, {7, 10}};
  EXPECT_EQ(blocks, want);

  blocks.clear();
  parallel_for_blocks(3, 8, [&](std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(mu);
    blocks.emplace_back(lo, hi);
  });
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(blocks, (std::vector<std::pair<std::size_t, std::size_t>>{
                        {0, 1}, {1, 2}, {2, 3}}));

  int calls = 0;
  parallel_for_blocks(0, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForBlocks, WorkerExceptionReachesTheCaller) {
  EXPECT_THROW(parallel_for_blocks(100, 4,
                                   [](std::size_t lo, std::size_t) {
                                     if (lo > 0) {
                                       throw std::runtime_error("block");
                                     }
                                   }),
               std::runtime_error);
}

}  // namespace
}  // namespace mfpa
