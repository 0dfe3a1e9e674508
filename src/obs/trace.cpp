#include "obs/trace.h"

#include "util/error.h"

namespace raidrel::obs {

TrialTrace::TrialTrace(std::size_t max_events) : cap_(max_events) {
  RAIDREL_REQUIRE(max_events > 0, "trace capacity must be positive");
  events_.reserve(max_events);
}

void TrialTrace::clear() noexcept {
  events_.clear();
  dropped_ = 0;
}

void TrialTrace::record(double time, TraceEventKind kind, std::uint32_t slot,
                        std::uint32_t group) {
  if (events_.size() >= cap_) {
    ++dropped_;
    return;
  }
  events_.push_back({time, kind, group, slot});
}

}  // namespace raidrel::obs
