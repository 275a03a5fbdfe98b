#include "stats.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tail TailPercentile(std::vector<double> samples, int max_percentile,
                    size_t min_beyond) {
  Tail tail;
  const size_t n = samples.size();
  if (n == 0) return tail;
  std::sort(samples.begin(), samples.end());
  for (int q = max_percentile; q >= 50; --q) {
    // ceil(q * n / 100) in integers; rank >= 1 because q >= 50 and n >= 1.
    const size_t rank = (static_cast<size_t>(q) * n + 99) / 100;
    if (n - rank >= min_beyond) {
      tail.percentile = q;
      tail.value = samples[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  return tail;
}

}  // namespace perfbench
