#include "field/population.h"

#include "util/error.h"

namespace raidrel::field {

stats::LifeData generate_study(const PopulationSpec& spec,
                               rng::RandomStream& rs) {
  RAIDREL_REQUIRE(spec.life != nullptr, "population needs a lifetime law");
  RAIDREL_REQUIRE(spec.units > 0, "population needs units");
  RAIDREL_REQUIRE(spec.observation_hours > 0.0,
                  "population needs an observation window");
  stats::LifeData data;
  data.reserve(spec.units);
  for (std::size_t i = 0; i < spec.units; ++i) {
    const double t = spec.life->sample(rs);
    if (t < spec.observation_hours) {
      data.push_back({t, true});
    } else {
      data.push_back({spec.observation_hours, false});
    }
  }
  return data;
}

double expected_failures(const PopulationSpec& spec) {
  RAIDREL_REQUIRE(spec.life != nullptr, "population needs a lifetime law");
  return static_cast<double>(spec.units) *
         spec.life->cdf(spec.observation_hours);
}

double window_for_expected_failures(const stats::Distribution& life,
                                    std::size_t units,
                                    std::size_t target_failures) {
  RAIDREL_REQUIRE(units > 0, "need units");
  RAIDREL_REQUIRE(target_failures > 0 && target_failures < units,
                  "target failures must be in (0, units)");
  const double f = static_cast<double>(target_failures) /
                   static_cast<double>(units);
  return life.quantile(f);
}

}  // namespace raidrel::field
