#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>

namespace perfbench {

void Result::fail_check(const std::string& message) {
  if (correct) std::cerr << "perfbench: check failed: " << message << "\n";
  correct = false;
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program image alone; getrusage's
  // ru_maxrss would also carry the peak of a launcher that exec'd us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

void EndToEnd::emit(Result& result) const {
  const double p50 = quantile(latencies, 0.5);
  const double p99 =
      latencies.size() >= kTailSamples ? quantile(latencies, 0.99) : p50;
  const double busy =
      std::accumulate(latencies.begin(), latencies.end(), failed_seconds);
  result.add("latency_p50_ms", p50 * 1e3, "ms");
  result.add("latency_p99_ms", p99 * 1e3, "ms");
  result.add("throughput_per_s", busy > 0.0 ? work_units / busy : 0.0, "1/s");
  result.add("setup_s", quantile(setups, 0.5), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x =
      seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return x;
}

std::uint64_t hash_bits(double x, std::uint64_t h) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return (h ^ bits) * 1099511628211ULL;
}

void print_result(const Result& result) {
  std::cout.flush();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // %.17g keeps every digit; non-finite values have no JSON form and
    // are printed as null.
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
