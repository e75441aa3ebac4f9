// Order statistics used by every reported timing.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

double median(std::vector<double> v);

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample: the
/// smallest value with at least q*N samples at or below it.
double percentile(std::vector<double> v, double q);

/// The highest of the reported percentiles (0.999, 0.99, 0.95, 0.9,
/// 0.5) that leaves at least ten samples above it among `n`, or 0 when
/// even the median does not (n < 20). p99 needs n >= 1000.
double tail_quantile(std::size_t n);

}  // namespace perfbench
