#include "sim/latent_credit.h"

#include <algorithm>
#include <bit>

#include "stats/weibull.h"
#include "util/error.h"

namespace raidrel::sim {

namespace {

/// Lambda of an exponential (beta = 1, gamma = 0) Weibull TTLd, or 0.
double exponential_rate(const stats::Distribution* law) noexcept {
  const auto* w = dynamic_cast<const stats::Weibull*>(law);
  if (w == nullptr || w->shape() != 1.0 || w->location() != 0.0) return 0.0;
  return 1.0 / w->scale();
}

LatentCurveKey curve_key(const raid::SlotModel& slot, double horizon) {
  return {exponential_rate(slot.time_to_latent_defect.get()),
          slot.time_to_scrub.get(), horizon};
}

}  // namespace

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
  for (const raid::GroupConfig* g : groups) {
    RAIDREL_REQUIRE(latent_credit_exclusion(*g) == nullptr,
                    "latent curves need in-scope groups");
    horizon_ = std::max(horizon_, g->mission_hours);
  }
  LatentCurveCache local;
  if (cache == nullptr) cache = &local;
  for (const raid::GroupConfig* g : groups) {
    for (const raid::SlotModel& slot : g->slots) {
      const double rate = exponential_rate(slot.time_to_latent_defect.get());
      const stats::Distribution* scrub = slot.time_to_scrub.get();
      LatentCurveKey key(rate, scrub, horizon_);
      const bool known =
          std::any_of(curves_.begin(), curves_.end(),
                      [&](const auto& c) { return c.first == key; });
      if (known) continue;
      curves_.emplace_back(std::move(key), cache->get(rate, scrub, horizon_));
    }
  }
}

const analytic::LatentCurve& LatentCurves::of(
    const raid::SlotModel& slot) const {
  const LatentCurveKey key = curve_key(slot, horizon_);
  for (const auto& [k, curve] : curves_) {
    if (k == key) return *curve;
  }
  throw ModelError("no latent curve for this slot's laws");
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
