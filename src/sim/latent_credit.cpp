#include "sim/latent_credit.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <iterator>

#include "stats/weibull.h"
#include "util/error.h"
#include "util/grid.h"

namespace raidrel::sim {

namespace {

/// Lambda of an exponential (beta = 1, gamma = 0) Weibull TTLd, or 0.
double exponential_rate(const stats::Distribution* law) noexcept {
  const auto* w = dynamic_cast<const stats::Weibull*>(law);
  if (w == nullptr || w->shape() != 1.0 || w->location() != 0.0) return 0.0;
  return 1.0 / w->scale();
}

/// Orders LatentCurves' slot entries by slot address.
bool by_slot(const std::pair<const raid::SlotModel*,
                             const analytic::LatentCurve*>& entry,
             const raid::SlotModel* slot) noexcept {
  return std::less<>()(entry.first, slot);
}

}  // namespace

double quantize_credit(double p) noexcept {
  // Scaling by a power of two and rounding to an integer are exact, so the
  // result is the multiple of 2^-26 nearest p.
  return std::nearbyint(p * 0x1p26) * 0x1p-26;
}

std::vector<double> first_drive_constants(
    const raid::GroupConfig& config,
    std::span<const analytic::LatentCurve* const> slot_curves) {
  const double mission = config.mission_hours;
  double first_failures = 0.0;
  for (const raid::SlotModel& slot : config.slots) {
    first_failures += slot.time_to_op_failure->cdf(mission);
  }
  const double window = mission / (1.0 + first_failures);
  // Slots usually share one table: average it once per distinct neighbour.
  std::vector<double> abar(slot_curves.size());
  for (std::size_t j = 0; j < abar.size(); ++j) {
    abar[j] = j > 0 && slot_curves[j] == slot_curves[j - 1]
                  ? abar[j - 1]
                  : slot_curves[j]->mean_until(window);
  }
  std::vector<double> c(abar.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    double clean = 1.0;
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (j != i) clean *= 1.0 - abar[j];
    }
    c[i] = quantize_credit(1.0 - clean);
  }
  return c;
}

std::vector<double> first_drive_mean(std::span<const raid::GroupConfig> groups,
                                     const LatentCurves& curves,
                                     double bucket_hours) {
  RAIDREL_REQUIRE(!groups.empty(), "first-drive mean needs a group");
  const double mission = groups.front().mission_hours;
  // Sum the constants per distinct op law first (slots usually share one;
  // lowered laws compare by their exact constants), then spread each sum
  // over the buckets by the law's CDF, 1 - exp(-H).
  std::vector<std::pair<CompiledLaw, double>> laws;
  for (const raid::GroupConfig& g : groups) {
    if (latent_credit_exclusion(g) != nullptr) continue;
    std::vector<const analytic::LatentCurve*> slot_curves;
    for (const raid::SlotModel& slot : g.slots) {
      slot_curves.push_back(&curves.of(slot));
    }
    const std::vector<double> c = first_drive_constants(g, slot_curves);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const CompiledLaw law =
          CompiledLaw::compile(g.slots[i].time_to_op_failure.get());
      const auto at = std::find_if(laws.begin(), laws.end(),
                                   [&](const auto& l) { return l.first == law; });
      if (at == laws.end()) {
        laws.emplace_back(law, c[i]);
      } else {
        at->second += c[i];
      }
    }
  }
  const std::size_t n = util::bucket_count(mission, bucket_hours);
  std::vector<double> mean(n, 0.0);
  for (const auto& [law, weight] : laws) {
    double below = -std::expm1(-law.cum_hazard(0.0));
    for (std::size_t b = 0; b < n; ++b) {
      const double edge = b + 1 == n
                              ? mission
                              : bucket_hours * static_cast<double>(b + 1);
      const double at_edge = -std::expm1(-law.cum_hazard(edge));
      mean[b] += weight * (at_edge - below);
      below = at_edge;
    }
  }
  const double per_group = 1.0 / static_cast<double>(groups.size());
  for (double& m : mean) m *= per_group;
  return mean;
}

const char* latent_credit_exclusion(
    const raid::GroupConfig& config,
    const std::optional<TiltSpec>& tilt) noexcept {
  if (tilt && tilt->engaged()) return "importance-sampling tilt engaged";
  if (config.redundancy != 1) return "redundancy above 1";
  if (config.stripe_zones != 0) return "stripe zones modelled";
  if (config.reconstruction_defect_probability != 0.0) {
    return "reconstruction defects modelled";
  }
  if (!config.clear_defects_on_ddf_restore) {
    return "defects kept across a DDF restore";
  }
  for (const raid::SlotModel& slot : config.slots) {
    if (!slot.time_to_latent_defect) return "no latent-defect law";
    if (exponential_rate(slot.time_to_latent_defect.get()) == 0.0) {
      return "latent-defect law is not exponential";
    }
  }
  return nullptr;
}

LatentCurveKey::LatentCurveKey(double latent_rate,
                               const stats::Distribution* scrub,
                               double horizon)
    : rate_bits(std::bit_cast<std::uint64_t>(latent_rate)),
      horizon_bits(std::bit_cast<std::uint64_t>(horizon)),
      scrub(scrub ? scrub->exact_key() : std::string()) {}

std::shared_ptr<const analytic::LatentCurve> LatentCurveCache::get(
    double latent_rate, const stats::Distribution* scrub, double horizon) {
  Entry* entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entry = &entries_.try_emplace({latent_rate, scrub, horizon})
                 .first->second;
  }
  // A second caller of the same key waits here for the first one's solve;
  // a solve that throws leaves the flag unset for the next caller.
  std::call_once(entry->built, [&] {
    entry->curve = std::make_shared<const analytic::LatentCurve>(
        latent_rate, scrub, horizon);
    builds_.fetch_add(1);
  });
  return entry->curve;
}

LatentCurves::LatentCurves(std::span<const raid::GroupConfig* const> groups,
                           LatentCurveCache* cache) {
  double horizon = 0.0;
  for (const raid::GroupConfig* g : groups) {
    RAIDREL_REQUIRE(latent_credit_exclusion(*g) == nullptr,
                    "latent curves need in-scope groups");
    horizon = std::max(horizon, g->mission_hours);
  }
  LatentCurveCache local;
  if (cache == nullptr) cache = &local;
  for (const raid::GroupConfig* g : groups) {
    for (const raid::SlotModel& slot : g->slots) {
      const double rate = exponential_rate(slot.time_to_latent_defect.get());
      const stats::Distribution* scrub = slot.time_to_scrub.get();
      LatentCurveKey key(rate, scrub, horizon);
      auto known = std::find_if(curves_.begin(), curves_.end(),
                                [&](const auto& c) { return c.first == key; });
      if (known == curves_.end()) {
        curves_.emplace_back(std::move(key), cache->get(rate, scrub, horizon));
        known = std::prev(curves_.end());
      }
      slots_.emplace_back(&slot, known->second.get());
    }
  }
  std::sort(slots_.begin(), slots_.end(),
            [](const auto& a, const auto& b) { return by_slot(a, b.first); });
}

const analytic::LatentCurve& LatentCurves::of(
    const raid::SlotModel& slot) const {
  const auto at =
      std::lower_bound(slots_.begin(), slots_.end(), &slot, by_slot);
  if (at == slots_.end() || at->first != &slot) {
    throw ModelError("no latent curve for this slot");
  }
  return *at->second;
}

std::shared_ptr<const LatentCurves> latent_curves_for(
    const raid::GroupConfig& config, const std::optional<TiltSpec>& tilt,
    LatentCurveCache* cache) {
  if (latent_credit_exclusion(config, tilt) != nullptr) return nullptr;
  const raid::GroupConfig* group = &config;
  return std::make_shared<const LatentCurves>(std::span(&group, 1), cache);
}

std::shared_ptr<const LatentCurves> latent_curves_for(
    std::span<const raid::GroupConfig> groups, LatentCurveCache* cache) {
  std::vector<const raid::GroupConfig*> in_scope;
  for (const raid::GroupConfig& g : groups) {
    if (latent_credit_exclusion(g) == nullptr) in_scope.push_back(&g);
  }
  if (in_scope.empty()) return nullptr;
  return std::make_shared<const LatentCurves>(in_scope, cache);
}

}  // namespace raidrel::sim
