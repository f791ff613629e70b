#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Nearest-rank quantile (q in (0, 1]) of `samples`, which it sorts; 0 when
/// there are none.
inline double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One reported number. `samples` is the count behind a timing or share
/// (0 for a single measured quantity); it is printed, not put in the JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// p50 and p99 of `samples` (scaled by `scale`) as two metrics named
/// `<prefix>_p50<suffix>` and `<prefix>_p99<suffix>`.
inline void add_percentiles(std::vector<Metric>& out, const std::string& prefix,
                            const std::string& suffix, std::vector<double>& samples,
                            const std::string& unit, double scale = 1.0) {
  const std::size_t n = samples.size();
  const double p50 = quantile(samples, 0.50) * scale;
  const double p99 = quantile(samples, 0.99) * scale;
  out.push_back({prefix + "_p50" + suffix, p50, unit, n});
  out.push_back({prefix + "_p99" + suffix, p99, unit, n});
}

}  // namespace perfbench
