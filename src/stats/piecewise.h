// Piecewise-constant-hazard lifetime law.
//
// Motivation (paper §6.3): the latent-defect rate is usage-driven —
// err/h = RER x Bytes read/h — and real deployments do not read at one
// constant rate for ten years. A workload with phases (heavy ingest the
// first year, archival afterwards; nightly scans; migration bursts) gives
// a piecewise-constant defect intensity. This law expresses exactly that:
//   h(t) = r_k  for t in [b_k, b_{k+1}),  last segment open-ended,
// with closed-form cumulative hazard, quantile and residual sampling, so
// it drops into the simulator like any other Distribution.
#pragma once

#include <vector>

#include "stats/distribution.h"

namespace raidrel::stats {

class PiecewiseConstantHazard final : public Distribution {
 public:
  struct Segment {
    double start;  ///< segment start time (first must be 0)
    double rate;   ///< hazard on [start, next start), >= 0
  };

  /// Segments must start at 0, be strictly increasing in `start`, have
  /// non-negative rates, and a positive final rate (so the law is proper).
  explicit PiecewiseConstantHazard(std::vector<Segment> segments);

  [[nodiscard]] double pdf(double t) const override;
  [[nodiscard]] double cdf(double t) const override;
  [[nodiscard]] double survival(double t) const override;
  [[nodiscard]] double hazard(double t) const override;
  [[nodiscard]] double cum_hazard(double t) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double sample(rng::RandomStream& rs) const override;
  [[nodiscard]] double sample_residual(double age,
                                       rng::RandomStream& rs) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string exact_key() const override;
  [[nodiscard]] DistributionPtr clone() const override;

  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

  /// Invert the cumulative hazard: smallest t with H(t) >= h.
  [[nodiscard]] double inverse_cum_hazard(double h) const;

 private:
  std::vector<Segment> segments_;
  std::vector<double> cum_at_start_;  ///< H(segment start), same indexing
};

}  // namespace raidrel::stats
