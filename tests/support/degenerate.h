// Point-mass lifetime law for tests: a deterministic delay, so a test can
// pin exactly when a restore, scrub or failure happens. No model the
// library builds uses it.
#pragma once

#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "stats/distribution.h"
#include "util/error.h"

namespace raidrel::stats {

/// Point mass at c >= 0.
class Degenerate final : public Distribution {
 public:
  explicit Degenerate(double c) : c_(c) {
    RAIDREL_REQUIRE(c >= 0.0, "Degenerate point must be >= 0");
  }

  [[nodiscard]] double pdf(double t) const override {
    return t == c_ ? std::numeric_limits<double>::infinity() : 0.0;
  }
  [[nodiscard]] double cdf(double t) const override {
    return t >= c_ ? 1.0 : 0.0;
  }
  [[nodiscard]] double quantile(double p) const override {
    RAIDREL_REQUIRE(p >= 0.0 && p < 1.0, "quantile requires p in [0,1)");
    return c_;
  }
  [[nodiscard]] double mean() const override { return c_; }
  [[nodiscard]] double variance() const override { return 0.0; }
  [[nodiscard]] double sample(rng::RandomStream& /*rs*/) const override {
    return c_;
  }
  [[nodiscard]] double sample_residual(
      double age, rng::RandomStream& /*rs*/) const override {
    return age >= c_ ? 0.0 : c_ - age;
  }
  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "Degenerate(c=" << c_ << ")";
    return os.str();
  }
  [[nodiscard]] DistributionPtr clone() const override {
    return std::make_unique<Degenerate>(*this);
  }

  [[nodiscard]] double value() const noexcept { return c_; }

 private:
  double c_;
};

}  // namespace raidrel::stats
