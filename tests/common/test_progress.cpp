#include "common/progress.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace mfpa {
namespace {

TEST(StageTimer, RecordsStagesInOrder) {
  StageTimer timer;
  timer.begin("a");
  timer.end(10, 100);
  timer.begin("b");
  timer.end(20, 200);
  const auto& records = timer.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_EQ(records[0].items, 10u);
  EXPECT_EQ(records[0].bytes, 100u);
  EXPECT_EQ(records[1].name, "b");
}

TEST(StageTimer, BeginImplicitlyEndsOpenStage) {
  StageTimer timer;
  timer.begin("first");
  timer.begin("second");  // closes "first" with zero items
  timer.end();
  const auto& records = timer.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "first");
  EXPECT_EQ(records[0].items, 0u);
}

TEST(StageTimer, EndWithoutBeginIsNoop) {
  StageTimer timer;
  timer.end(5);
  EXPECT_TRUE(timer.records().empty());
}

TEST(StageTimer, MeasuresElapsedTime) {
  StageTimer timer;
  timer.begin("sleep");
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  timer.end();
  ASSERT_EQ(timer.records().size(), 1u);
  EXPECT_GE(timer.records()[0].seconds, 0.010);
  EXPECT_LT(timer.records()[0].seconds, 5.0);
}

TEST(StageTimer, DoubleEndRecordsOnce) {
  StageTimer timer;
  timer.begin("x");
  timer.end(1);
  timer.end(2);  // no open stage: ignored
  EXPECT_EQ(timer.records().size(), 1u);
}

}  // namespace
}  // namespace mfpa
