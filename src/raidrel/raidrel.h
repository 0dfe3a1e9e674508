// Umbrella header: everything a downstream user needs for the common
// paths. Individual module headers remain the fine-grained option.
//
//   #include "raidrel/raidrel.h"
//   auto result = raidrel::core::evaluate_scenario(
//       raidrel::core::presets::base_case(), {.trials = 100000});
#pragma once

// Core facade: scenarios, presets, evaluation.
#include "core/model.h"      // IWYU pragma: export
#include "core/presets.h"    // IWYU pragma: export
#include "core/scenario.h"   // IWYU pragma: export

// Engines and runners.
#include "sim/convergence.h"      // IWYU pragma: export
#include "sim/fleet_simulator.h"  // IWYU pragma: export
#include "sim/group_simulator.h"  // IWYU pragma: export
#include "sim/runner.h"           // IWYU pragma: export
#include "sim/timing_engine.h"    // IWYU pragma: export

// Lifetime laws (Weibull, gamma, mixtures, competing risks, piecewise
// hazards, residual life) and field statistics (Weibull fits, trend
// tests, Poisson intervals).
#include "stats/basic_distributions.h"  // IWYU pragma: export
#include "stats/composite.h"            // IWYU pragma: export
#include "stats/fit.h"                  // IWYU pragma: export
#include "stats/piecewise.h"            // IWYU pragma: export
#include "stats/point_process.h"        // IWYU pragma: export
#include "stats/poisson_ci.h"           // IWYU pragma: export
#include "stats/residual_life.h"        // IWYU pragma: export
#include "stats/weibull.h"              // IWYU pragma: export

// Baselines, workload physics, field analysis, reporting.
#include "analytic/latent_ddf.h"     // IWYU pragma: export
#include "analytic/markov.h"         // IWYU pragma: export
#include "analytic/mttdl.h"          // IWYU pragma: export
#include "field/mcf.h"               // IWYU pragma: export
#include "field/paper_products.h"    // IWYU pragma: export
#include "report/ascii_chart.h"      // IWYU pragma: export
#include "report/table.h"            // IWYU pragma: export
#include "workload/duty_cycle.h"     // IWYU pragma: export
#include "workload/read_errors.h"    // IWYU pragma: export
#include "workload/restore_model.h"  // IWYU pragma: export

namespace raidrel {

/// Library semantic version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";

/// The paper this library reproduces.
inline constexpr const char* kPaperCitation =
    "J. G. Elerath and M. Pecht, \"Enhanced Reliability Modeling of RAID "
    "Storage Systems\", Proc. IEEE/IFIP DSN 2007";

}  // namespace raidrel
