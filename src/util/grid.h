// Time-bucket helpers used by the experiment harnesses (e.g. "cumulative
// DDFs sampled every 2 000 hours").
#pragma once

#include <cstddef>

namespace raidrel::util {

/// Index of the bucket containing time t for buckets of `width` over
/// [0, horizon]; times at bucket boundaries go to the right bucket,
/// t == horizon goes to the last bucket.
std::size_t bucket_index(double t, double horizon, double width);

/// Number of fixed-width buckets covering [0, horizon].
std::size_t bucket_count(double horizon, double width);

}  // namespace raidrel::util
