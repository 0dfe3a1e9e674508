// Synthetic field-return populations.
//
// The paper's §2 evidence is proprietary NetApp return data; per the
// substitution policy in DESIGN.md we regenerate statistically equivalent
// populations from the published shapes: units are drawn from a specified
// lifetime law and Type-I censored at the end of the observation window
// (drives still running become suspensions), exactly the structure of a
// field reliability study.
#pragma once

#include <string>

#include "rng/rng.h"
#include "stats/distribution.h"
#include "stats/empirical.h"

namespace raidrel::field {

/// Description of one observed population.
struct PopulationSpec {
  std::string name;
  stats::DistributionPtr life;     ///< true underlying lifetime law
  std::size_t units = 0;           ///< drives in the study
  double observation_hours = 0.0;  ///< Type-I censoring time
};

/// Draw the study: failure times below the window, suspensions at it.
stats::LifeData generate_study(const PopulationSpec& spec,
                               rng::RandomStream& rs);

/// Expected failures within the window (units * F(window)); used to pick
/// observation windows that match published failure/suspension counts.
double expected_failures(const PopulationSpec& spec);

/// Observation window that makes `target_failures` expected failures.
double window_for_expected_failures(const stats::Distribution& life,
                                    std::size_t units,
                                    std::size_t target_failures);

}  // namespace raidrel::field
