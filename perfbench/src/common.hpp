// Shared plumbing of the perfbench program: run options, the result record
// printed as the last stdout line, sample statistics and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured (busy-loop) time of one run
  bool trace = false;     ///< per-layer run instead of end-to-end
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `correct` covers every operation that did not
/// fail; `failed` counts operations that hit a known program fault.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (the message goes to stderr).
  void fail_check(const std::string& message);
};

/// Linear-interpolated sample quantile (q in [0, 1]); 0 for an empty
/// sample.
[[nodiscard]] double quantile(std::vector<double> sample, double q);

/// Peak resident set of this program image in MiB.
[[nodiscard]] double peak_rss_mb();

/// Timing summary of one end-to-end run: latencies (seconds) of the
/// operations that did not fail, time spent in failed ones, work units
/// completed and the set-up times. Emits the end-to-end metrics.
struct EndToEnd {
  std::vector<double> latencies;
  std::vector<double> setups;
  double failed_seconds = 0.0;  ///< busy time of failed operations
  double work_units = 0.0;

  /// latency_p50_ms, latency_p99_ms, throughput_per_s (work units per
  /// second of all busy time, failed operations included), setup_s,
  /// peak_rss_mb. With fewer than kTailSamples operations the tail is not
  /// measurable and latency_p99_ms repeats the median.
  void emit(Result& result) const;
};

inline constexpr std::size_t kTailSamples = 1000;

/// Mixes the run's seed with a stream tag into an independent generator
/// seed, so each input stream of a workload has its own.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Seed of hash_bits chains.
inline constexpr std::uint64_t kHashSeed = 1469598103934665603ULL;

/// Folds the bit pattern of `x` into `h` (FNV-1a over 64-bit words): the
/// traced passes compare hashes of their outputs for bit-identity.
[[nodiscard]] std::uint64_t hash_bits(double x, std::uint64_t h);

/// Prints `result` as one JSON line on stdout.
void print_result(const Result& result);

}  // namespace perfbench
