// Order statistics over measured samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) with linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Sum(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
