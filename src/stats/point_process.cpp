#include "stats/point_process.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/math.h"

namespace raidrel::stats {

namespace {

struct Pooled {
  double sum_log_ratio = 0.0;  ///< sum ln(T_i / t_ij) over all events
  std::size_t events = 0;
  std::size_t systems = 0;
};

Pooled pool(const std::vector<EventHistory>& histories) {
  RAIDREL_REQUIRE(!histories.empty(), "need at least one system history");
  Pooled p;
  p.systems = histories.size();
  for (const auto& h : histories) {
    RAIDREL_REQUIRE(h.observation_end > 0.0,
                    "each system needs a positive observation window");
    for (double t : h.times) {
      RAIDREL_REQUIRE(t > 0.0 && t <= h.observation_end,
                      "event outside its observation window");
      p.sum_log_ratio += std::log(h.observation_end / t);
      ++p.events;
    }
  }
  return p;
}

}  // namespace

PowerLawFit fit_power_law(const std::vector<EventHistory>& histories) {
  const Pooled p = pool(histories);
  PowerLawFit fit;
  fit.events = p.events;
  fit.systems = p.systems;
  RAIDREL_REQUIRE(p.events >= 2, "power-law MLE needs at least 2 events");
  RAIDREL_REQUIRE(p.sum_log_ratio > 0.0,
                  "degenerate data: every event at its observation end");
  fit.beta = static_cast<double>(p.events) / p.sum_log_ratio;
  // eta solves N = sum_i (T_i / eta)^beta  =>
  // eta = (sum_i T_i^beta / N)^(1/beta), stabilized by the max log.
  double max_log = -std::numeric_limits<double>::infinity();
  for (const auto& h : histories) {
    max_log = std::max(max_log, std::log(h.observation_end));
  }
  double s = 0.0;
  for (const auto& h : histories) {
    s += std::exp(fit.beta * (std::log(h.observation_end) - max_log));
  }
  fit.eta = std::exp(max_log +
                     std::log(s / static_cast<double>(p.events)) / fit.beta);
  fit.converged = std::isfinite(fit.beta) && std::isfinite(fit.eta) &&
                  fit.beta > 0.0 && fit.eta > 0.0;
  return fit;
}

TrendTest laplace_trend_test(const std::vector<EventHistory>& histories) {
  RAIDREL_REQUIRE(!histories.empty(), "need at least one system history");
  // Pooled time-truncated Laplace statistic:
  //   U = (sum_ij t_ij - sum_i n_i T_i / 2) / sqrt(sum_i n_i T_i^2 / 12).
  double num = 0.0;
  double var = 0.0;
  std::size_t events = 0;
  for (const auto& h : histories) {
    RAIDREL_REQUIRE(h.observation_end > 0.0,
                    "each system needs a positive observation window");
    const auto n = static_cast<double>(h.times.size());
    for (double t : h.times) {
      RAIDREL_REQUIRE(t > 0.0 && t <= h.observation_end,
                      "event outside its observation window");
      num += t;
    }
    num -= n * h.observation_end / 2.0;
    var += n * h.observation_end * h.observation_end / 12.0;
    events += h.times.size();
  }
  TrendTest out;
  out.events = events;
  RAIDREL_REQUIRE(events >= 1, "Laplace test needs at least one event");
  out.statistic = num / std::sqrt(var);
  out.p_value = util::erfc_fn(std::abs(out.statistic) / std::sqrt(2.0));
  return out;
}

MilHdbkTest mil_hdbk_trend_test(const std::vector<EventHistory>& histories) {
  const Pooled p = pool(histories);
  RAIDREL_REQUIRE(p.events >= 1, "MIL-HDBK test needs at least one event");
  MilHdbkTest out;
  out.statistic = 2.0 * p.sum_log_ratio;
  out.events = p.events;
  out.dof = 2 * p.events;
  // chi^2 CDF via the regularized lower incomplete gamma.
  out.p_value_increasing =
      util::gamma_p(static_cast<double>(out.dof) / 2.0, out.statistic / 2.0);
  return out;
}

}  // namespace raidrel::stats
