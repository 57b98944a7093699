#include "common/progress.hpp"

namespace mfpa {

void StageTimer::begin(const std::string& name) {
  if (open_) end();
  open_name_ = name;
  open_start_ = Clock::now();
  open_ = true;
}

void StageTimer::end(std::size_t items, std::size_t bytes) {
  if (!open_) return;
  const double secs =
      std::chrono::duration<double>(Clock::now() - open_start_).count();
  records_.push_back({open_name_, secs, items, bytes});
  open_ = false;
}

}  // namespace mfpa
