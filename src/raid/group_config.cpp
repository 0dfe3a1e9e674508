#include "raid/group_config.h"

#include "util/error.h"

namespace raidrel::raid {

SlotModel SlotModel::clone() const {
  SlotModel c;
  if (time_to_op_failure) c.time_to_op_failure = time_to_op_failure->clone();
  if (time_to_restore) c.time_to_restore = time_to_restore->clone();
  if (time_to_latent_defect) {
    c.time_to_latent_defect = time_to_latent_defect->clone();
  }
  if (time_to_scrub) c.time_to_scrub = time_to_scrub->clone();
  return c;
}

GroupConfig GroupConfig::clone() const {
  GroupConfig c;
  c.redundancy = redundancy;
  c.mission_hours = mission_hours;
  c.clear_defects_on_ddf_restore = clear_defects_on_ddf_restore;
  c.spare_pool = spare_pool;
  c.stripe_zones = stripe_zones;
  c.latent_clock = latent_clock;
  c.rebuild = rebuild;
  c.reconstruction_defect_probability = reconstruction_defect_probability;
  c.slots.reserve(slots.size());
  for (const auto& s : slots) c.slots.push_back(s.clone());
  return c;
}

void GroupConfig::validate() const {
  RAIDREL_REQUIRE(redundancy >= 1, "redundancy must be >= 1");
  RAIDREL_REQUIRE(slots.size() > redundancy,
                  "group must have more drives than redundancy");
  RAIDREL_REQUIRE(mission_hours > 0.0, "mission must be positive");
  if (spare_pool) {
    RAIDREL_REQUIRE(spare_pool->capacity >= 1,
                    "spare pool needs at least one spare");
    RAIDREL_REQUIRE(spare_pool->replenish_hours > 0.0,
                    "spare replenishment lead time must be positive");
  }
  RAIDREL_REQUIRE(reconstruction_defect_probability >= 0.0 &&
                      reconstruction_defect_probability <= 1.0,
                  "reconstruction defect probability must be in [0,1]");
  if (reconstruction_defect_probability > 0.0) {
    for (const auto& s : slots) {
      RAIDREL_REQUIRE(s.time_to_latent_defect != nullptr,
                      "reconstruction write-errors need latent defects "
                      "enabled (they become latent defects)");
    }
  }
  for (const auto& s : slots) {
    RAIDREL_REQUIRE(s.time_to_op_failure != nullptr,
                    "every slot needs a time-to-operational-failure law");
    RAIDREL_REQUIRE(s.time_to_restore != nullptr,
                    "every slot needs a time-to-restore law");
    RAIDREL_REQUIRE(
        s.time_to_scrub == nullptr || s.time_to_latent_defect != nullptr,
        "scrubbing without latent defects is meaningless");
  }
}

GroupConfig make_uniform_group(unsigned total_drives, unsigned redundancy,
                               const SlotModel& model, double mission_hours) {
  RAIDREL_REQUIRE(total_drives >= 2, "a RAID group needs >= 2 drives");
  GroupConfig cfg;
  cfg.redundancy = redundancy;
  cfg.mission_hours = mission_hours;
  cfg.slots.reserve(total_drives);
  for (unsigned i = 0; i < total_drives; ++i) {
    cfg.slots.push_back(model.clone());
  }
  cfg.validate();
  return cfg;
}

const char* to_string(RebuildModel rebuild) noexcept {
  switch (rebuild) {
    case RebuildModel::kDedicatedSpare:
      return "dedicated-spare";
    case RebuildModel::kDeclustered:
      return "declustered";
  }
  return "unknown";
}

}  // namespace raidrel::raid
