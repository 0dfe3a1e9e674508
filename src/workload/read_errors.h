// Usage-dependent latent-defect rates (paper §6.3, Table 1).
//
// The paper approximates HDD "usage" as read errors per Byte read (RER)
// times average Bytes read per hour; the product is the hourly latent-defect
// generation rate, and its reciprocal the characteristic life of the
// (beta = 1) time-to-latent-defect distribution.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace raidrel::workload {

/// A field read-error-rate study (the paper cites three NetApp studies).
struct RerStudy {
  std::string name;
  double errors_per_byte = 0.0;  ///< verified-HDD-cause read errors per Byte
  double drives = 0.0;           ///< study population size
};

/// The three published RER study results (paper §6.3).
std::vector<RerStudy> published_rer_studies();

/// The paper's RER levels for Table 1 (low / medium / high err per Byte).
struct RerLevel {
  std::string label;
  double errors_per_byte;
};
std::array<RerLevel, 3> table1_rer_levels();

/// The paper's hourly read-volume levels for Table 1 (low / high Bytes/h).
struct ReadRateLevel {
  std::string label;
  double bytes_per_hour;
};
std::array<ReadRateLevel, 2> table1_read_rates();

/// Hourly latent-defect rate: err/h = RER [err/Byte] * read rate [Byte/h].
double latent_defect_rate_per_hour(double errors_per_byte,
                                   double bytes_per_hour);

/// Full Table 1: the 3x2 grid of hourly rates.
struct Table1Cell {
  std::string rer_label;
  std::string rate_label;
  double errors_per_byte;
  double bytes_per_hour;
  double errors_per_hour;
};
/// The base case's 1.08e-4 err/h (eta = 9259 h) is the medium-RER /
/// low-read-rate cell.
std::vector<Table1Cell> table1_grid();

}  // namespace raidrel::workload
