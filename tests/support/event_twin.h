// Event-path twins for the latent-credit scope (sim/latent_credit.h).
//
// An in-scope configuration (redundancy 1, exponential TTLd, ...) runs the
// latent-credit estimator, which simulates no defect or scrub events. A
// suite that proves something about the event engines — lockstep vs
// scalar bit-identity, occupancy, cancellation boundaries — would then
// compare credited against credited and lose its event-path coverage
// silently. Such suites run each in-scope config a second time as its
// twin: the same group with every TTLd's shape raised to 1.2, which is
// out of scope and therefore simulated event by event.
#pragma once

#include <memory>
#include <vector>

#include "raid/group_config.h"
#include "sim/latent_credit.h"
#include "stats/weibull.h"

namespace raidrel::test {

/// `config` with every Weibull TTLd's shape set to 1.2 (an event-path
/// config, whatever `config` was).
inline raid::GroupConfig event_twin(const raid::GroupConfig& config) {
  raid::GroupConfig twin = config.clone();
  for (raid::SlotModel& slot : twin.slots) {
    if (const auto* w = dynamic_cast<const stats::Weibull*>(
            slot.time_to_latent_defect.get())) {
      slot.time_to_latent_defect =
          std::make_unique<stats::Weibull>(w->location(), w->scale(), 1.2);
    }
  }
  return twin;
}

/// `config` itself, followed by its event twin when `config` is in the
/// latent-credit scope.
inline std::vector<raid::GroupConfig> with_event_twin(
    const raid::GroupConfig& config) {
  std::vector<raid::GroupConfig> out;
  out.push_back(config.clone());
  if (sim::latent_credit_exclusion(config) == nullptr) {
    out.push_back(event_twin(config));
  }
  return out;
}

}  // namespace raidrel::test
