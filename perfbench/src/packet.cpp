// packet-sim: packet-level replications of FIFO, Fair Share (the Table 1
// priority-thinning oracle), DRR and SFQ through sim::run_switch. One
// operation runs each discipline once on the same rate vector with a fresh
// replication seed. No solver code runs here.
//
// The rate vector is the closed-form Fair Share equilibrium (oracle.hpp) of
// eight users with gamma drawn from [0.2, 0.6], so the total load is
// 1 - sqrt(min gamma), between 0.23 and 0.55. Each replication simulates
// the time in which 4000 packets are expected to arrive (plus a 10%
// warm-up), so a run's work per operation does not depend on the load.
//
// Checks, on the replications of a whole run pooled per user, each within
// kZ standard errors of the pooled mean:
//   * throughput = r_i for every discipline;
//   * Little's law L_i = throughput_i * W_i for every discipline;
//   * FIFO mean queues r_i / (1 - R);
//   * Fair Share mean queues C^FS_i (the paper's sum formula).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "numerics/rng.hpp"
#include "oracle.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gw::sim::Discipline;

constexpr std::size_t kUsers = 8;
constexpr double kArrivals = 4000.0;
constexpr int kBatches = 10;
constexpr Discipline kDisciplines[] = {Discipline::kFifo,
                                       Discipline::kFairShareOracle,
                                       Discipline::kDrr, Discipline::kSfq};
constexpr std::size_t kDisciplineCount = std::size(kDisciplines);
constexpr int kWarmupRounds = 3;
constexpr std::size_t kTracedRounds = 300;
constexpr std::size_t kKernelEvents = 2'000'000;
/// Standard errors allowed between a pooled estimate and its target.
constexpr double kZ = 6.0;

std::vector<double> equilibrium_rates(std::uint64_t seed) {
  gw::numerics::Rng rng(derive_seed(seed, 20));
  std::vector<double> gammas(kUsers);
  for (double& gamma : gammas) gamma = rng.uniform(0.2, 0.6);
  return oracle::serial_rates(oracle::singletons(gammas), 1.0, 0.0);
}

gw::sim::RunOptions run_options(double total_load, std::uint64_t seed) {
  gw::sim::RunOptions options;
  const double measured = kArrivals / total_load;
  options.warmup = 0.1 * measured;
  options.batches = kBatches;
  options.batch_length = measured / kBatches;
  options.seed = seed;
  return options;
}

/// Running sums of one per-user estimate over replications.
struct Pooled {
  double sum = 0.0;
  double sum_sq = 0.0;
  double n = 0.0;

  void add(double x) {
    sum += x;
    sum_sq += x * x;
    n += 1.0;
  }
  [[nodiscard]] double mean() const { return sum / n; }
  [[nodiscard]] double standard_error() const {
    const double var = (sum_sq - sum * sum / n) / (n - 1.0);
    return std::sqrt(std::max(var, 0.0) / n);
  }
};

/// Per-discipline, per-user pooled estimates of a run.
struct Estimates {
  std::vector<Pooled> throughput, queue, little;

  Estimates()
      : throughput(kDisciplineCount * kUsers),
        queue(kDisciplineCount * kUsers),
        little(kDisciplineCount * kUsers) {}

  void add(std::size_t d, const gw::sim::RunResult& run) {
    for (std::size_t u = 0; u < kUsers; ++u) {
      const auto& s = run.users[u];
      throughput[d * kUsers + u].add(s.throughput);
      queue[d * kUsers + u].add(s.mean_queue);
      little[d * kUsers + u].add(s.mean_queue - s.throughput * s.mean_delay);
    }
  }
};

/// Checks a pooled estimate against its target; returns the gap in
/// standard errors.
double check_close(const Pooled& p, double target, const std::string& what,
                   Result& result) {
  const double z = std::abs(p.mean() - target) / p.standard_error();
  if (!(z <= kZ)) {
    result.fail_check(what + ": pooled " + std::to_string(p.mean()) +
                      ", expected " + std::to_string(target) + " (" +
                      std::to_string(z) + " standard errors)");
  }
  return z;
}

void check_estimates(const Estimates& est, const std::vector<double>& rates,
                     Result& result) {
  double total = 0.0;
  for (const double r : rates) total += r;
  const auto fs_queues = oracle::fair_share_queues(rates);
  double worst = 0.0;
  for (std::size_t d = 0; d < kDisciplineCount; ++d) {
    const std::string name = gw::sim::discipline_name(kDisciplines[d]);
    for (std::size_t u = 0; u < kUsers; ++u) {
      const std::size_t i = d * kUsers + u;
      const std::string who = name + " user " + std::to_string(u);
      worst = std::max({worst,
                        check_close(est.throughput[i], rates[u],
                                    who + " throughput", result),
                        check_close(est.little[i], 0.0, who + " Little's law",
                                    result)});
      if (kDisciplines[d] == Discipline::kFifo) {
        worst = std::max(worst, check_close(est.queue[i],
                                            rates[u] / (1.0 - total),
                                            who + " queue", result));
      } else if (kDisciplines[d] == Discipline::kFairShareOracle) {
        worst = std::max(worst, check_close(est.queue[i], fs_queues[u],
                                            who + " queue", result));
      }
    }
  }
  std::fprintf(stderr,
               "perfbench: %.0f replications per discipline; largest gap "
               "%.2f standard errors (limit %.0f)\n",
               est.throughput[0].n, worst, kZ);
}

std::uint64_t hash_run(const gw::sim::RunResult& run, std::uint64_t h) {
  for (const auto& s : run.users) h = hash_bits(s.mean_queue, h);
  return h;
}

/// ns per event of a bare Simulator chain: 64 self-rescheduling events
/// with pseudo-random delays, kKernelEvents firings.
double kernel_ns_per_event() {
  gw::sim::Simulator sim;
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  std::size_t fired = 0;
  struct Tick {
    gw::sim::Simulator* sim;
    std::uint64_t* state;
    std::size_t* fired;
    void operator()() const {
      ++*fired;
      if (*fired >= kKernelEvents) return;
      *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
      const double dt =
          static_cast<double>(*state >> 11) * (1.0 / 9007199254740992.0);
      sim->schedule_in(dt, Tick{sim, state, fired});
    }
  };
  for (int i = 0; i < 64; ++i) {
    sim.schedule_in(static_cast<double>(i) / 64.0, Tick{&sim, &state, &fired});
  }
  const auto t0 = Clock::now();
  const std::size_t processed = sim.run_until(1e18);
  return seconds_between(t0, Clock::now()) * 1e9 /
         static_cast<double>(processed);
}

void run_traced(const Options& options, const std::vector<double>& rates,
                double total, Result& result) {
  trace::LayerReport report;
  Estimates est;
  std::vector<std::uint64_t> reference;
  double untraced = 0.0;
  for (std::size_t r = 0; r < kTracedRounds; ++r) {
    const auto run_seed = derive_seed(options.seed, 100 + r);
    std::uint64_t h = kHashSeed;
    for (std::size_t d = 0; d < kDisciplineCount; ++d) {
      const auto t0 = Clock::now();
      const auto run =
          gw::sim::run_switch(kDisciplines[d], rates, run_options(total, run_seed));
      untraced += seconds_between(t0, Clock::now());
      est.add(d, run);
      h = hash_run(run, h);
    }
    ++result.attempted;
    reference.push_back(h);
  }
  check_estimates(est, rates, result);

  // Traced pass: the same replications with a span per discipline call.
  double span_s[kDisciplineCount] = {};
  double events[kDisciplineCount] = {};
  const auto loop_start = Clock::now();
  for (std::size_t r = 0; r < kTracedRounds; ++r) {
    const auto run_seed = derive_seed(options.seed, 100 + r);
    std::uint64_t h = kHashSeed;
    for (std::size_t d = 0; d < kDisciplineCount; ++d) {
      const auto t0 = Clock::now();
      const auto run =
          gw::sim::run_switch(kDisciplines[d], rates, run_options(total, run_seed));
      span_s[d] += seconds_between(t0, Clock::now());
      events[d] += static_cast<double>(run.events);
      h = hash_run(run, h);
    }
    if (h != reference[r]) {
      result.fail_check("traced replications diverged at round " +
                        std::to_string(r));
    }
  }
  const double loop = seconds_between(loop_start, Clock::now());
  double spans = 0.0;
  for (std::size_t d = 0; d < kDisciplineCount; ++d) {
    spans += span_s[d];
    report.sim_events += events[d];
  }
  report.sim_fifo_ns_per_event = span_s[0] * 1e9 / events[0];
  report.sim_fs_oracle_ns_per_event = span_s[1] * 1e9 / events[1];
  report.sim_drr_ns_per_event = span_s[2] * 1e9 / events[2];
  report.sim_sfq_ns_per_event = span_s[3] * 1e9 / events[3];
  report.sim_kernel_ns_per_event = kernel_ns_per_event();
  report.overhead_pct = 100.0 * (spans / untraced - 1.0);
  report.attributed_pct = 100.0 * spans / loop;
  report.emit(result);
}

}  // namespace

void run_packet_sim(const Options& options, Result& result) {
  const auto rates = equilibrium_rates(options.seed);
  double total = 0.0;
  for (const double r : rates) total += r;
  if (options.trace) {
    run_traced(options, rates, total, result);
    return;
  }

  // Set-up: warm-up rounds (not counted as operations) that bring up the
  // simulator's event heap and the allocator.
  EndToEnd e2e;
  for (int w = 0; w < kWarmupRounds; ++w) {
    const auto run_seed = derive_seed(options.seed, 50 + w);
    const auto t0 = Clock::now();
    for (const Discipline d : kDisciplines) {
      (void)gw::sim::run_switch(d, rates, run_options(total, run_seed));
    }
    e2e.setups.push_back(seconds_between(t0, Clock::now()));
  }

  Estimates est;
  const auto begin = Clock::now();
  for (std::size_t r = 0; seconds_between(begin, Clock::now()) < options.seconds;
       ++r) {
    const auto run_seed = derive_seed(options.seed, 100 + r);
    double round = 0.0;
    for (std::size_t d = 0; d < kDisciplineCount; ++d) {
      const auto t0 = Clock::now();
      const auto run =
          gw::sim::run_switch(kDisciplines[d], rates, run_options(total, run_seed));
      round += seconds_between(t0, Clock::now());
      e2e.work_units += static_cast<double>(run.events);
      est.add(d, run);
    }
    ++result.attempted;
    e2e.latencies.push_back(round);
  }
  check_estimates(est, rates, result);
  e2e.emit(result);
}

}  // namespace perfbench
