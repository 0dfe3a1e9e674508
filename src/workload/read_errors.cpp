#include "workload/read_errors.h"

#include "util/error.h"

namespace raidrel::workload {

std::vector<RerStudy> published_rer_studies() {
  return {
      {"2004 RAID study (282k drives, 3-month RER)", 8.0e-14, 282000},
      {"Companion study (66.8k drives)", 3.2e-13, 66800},
      {"Recent study (63k drives, 5 months)", 8.0e-15, 63000},
  };
}

std::array<RerLevel, 3> table1_rer_levels() {
  return {{{"Low", 8.0e-15}, {"Med", 8.0e-14}, {"High", 3.2e-13}}};
}

std::array<ReadRateLevel, 2> table1_read_rates() {
  return {{{"Low Rate", 1.35e9}, {"High Rate", 1.35e10}}};
}

double latent_defect_rate_per_hour(double errors_per_byte,
                                   double bytes_per_hour) {
  RAIDREL_REQUIRE(errors_per_byte >= 0.0, "RER must be >= 0");
  RAIDREL_REQUIRE(bytes_per_hour >= 0.0, "read rate must be >= 0");
  return errors_per_byte * bytes_per_hour;
}

std::vector<Table1Cell> table1_grid() {
  std::vector<Table1Cell> grid;
  for (const auto& rer : table1_rer_levels()) {
    for (const auto& rate : table1_read_rates()) {
      grid.push_back({rer.label, rate.label, rer.errors_per_byte,
                      rate.bytes_per_hour,
                      latent_defect_rate_per_hour(rer.errors_per_byte,
                                                  rate.bytes_per_hour)});
    }
  }
  return grid;
}

}  // namespace raidrel::workload
