// Exact sample statistics for the benchmark: every latency sample is kept,
// so percentiles are order statistics, not histogram bucket bounds.

#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `samples`: the middle value, or the mean of the two middle
/// values for an even count. 0 for an empty vector.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& samples);

/// A tail percentile picked by the "enough samples beyond it" rule.
struct Tail {
  int percentile = 0;  ///< 0 when no percentile >= 50 qualifies
  double value = 0;
  size_t beyond = 0;   ///< samples strictly after the percentile's rank
};

/// \brief The highest integer percentile q in [50, max_percentile] whose
/// nearest-rank value still has at least `min_beyond` samples after it.
///
/// Nearest rank: q's value is the ceil(q/100 * n)-th smallest sample
/// (1-based), and `beyond` is n minus that rank. With 1000 samples the rule
/// gives p99 (10 beyond); with 200 it gives p95.
Tail TailPercentile(std::vector<double> samples, int max_percentile = 99,
                    size_t min_beyond = 10);

}  // namespace perfbench
