// Wall-clock instrumentation for the overhead experiment (paper Fig. 20):
// per-stage timers with item counts and approximate working-set size.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace mfpa {

/// One completed pipeline stage measurement.
struct StageRecord {
  std::string name;
  double seconds = 0.0;
  std::size_t items = 0;        ///< data items processed by the stage
  std::size_t bytes = 0;        ///< approximate working-set size in bytes
};

/// Accumulates named stage timings. Not thread-safe; one per pipeline run.
class StageTimer {
 public:
  /// Starts timing a stage; implicitly finishes any open stage.
  void begin(const std::string& name);

  /// Finishes the open stage, recording item/byte counts.
  void end(std::size_t items = 0, std::size_t bytes = 0);

  const std::vector<StageRecord>& records() const noexcept { return records_; }

 private:
  using Clock = std::chrono::steady_clock;
  std::vector<StageRecord> records_;
  std::string open_name_;
  Clock::time_point open_start_{};
  bool open_ = false;
};

}  // namespace mfpa
