// classed-million: classed ctrl::SolverShards at N = 10^6 users in k = 32
// classes, repaired directly (no Controller). Each round stages that
// round's class-count and class-utility churn and repairs the shards it
// touched. Only the O(k) classed kernels and the k-dim Newton run here. Every
// repair is an attempted operation; the latency of a round covers the
// three converging shards, since the fault shard's repairs all fail (a
// failed operation misses any latency limit) and would otherwise be
// nine tenths of it. The fault shard is staged and repaired on every
// fourth round only, which keeps its 60+60-iteration failures from eating
// the run (and the p99's sample); runs end on whole groups of four
// rounds, so 1 of every 13 repairs fails.
//
// Shards, all with linear utilities U = r - gamma c:
//   * Fair Share, per-class gamma drawn from [0.3, 0.85];
//   * serial M/G/1 (scv = 2), per-class gamma drawn likewise;
//   * FIFO with one gamma for every class (drawn once): under FIFO at
//     N = 10^6 any spread of gamma leaves all but the lowest-gamma class at
//     the rate floor, so the seeded FIFO shard churns class counts only;
//   * FIFO with fixed heterogeneous gamma = 0.2 ... 0.8 and a fixed churn
//     sequence, independent of the seed. solve_nash_classed does not
//     converge on it (most classes sit at the floor), so its repairs are
//     the run's failed operations.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/fair_share.hpp"
#include "core/gfunction.hpp"
#include "core/population.hpp"
#include "core/proportional.hpp"
#include "core/serial_general.hpp"
#include "core/utility.hpp"
#include "ctrl/shard.hpp"
#include "numerics/rng.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gw::ctrl::RepairPath;

constexpr std::size_t kUsers = 1'000'000;
constexpr std::size_t kClasses = 32;
constexpr double kGammaMin = 0.3;
constexpr double kGammaMax = 0.85;
constexpr double kScv = 2.0;
/// The classed rate floor: at N = 10^6 equilibrium rates sit near 1e-7,
/// far below the default 1e-6 (E-SCALE lowers it the same way).
constexpr double kFloor = 1e-9;
constexpr int kSetups = 5;
constexpr std::size_t kTracedRounds = 400;
constexpr std::size_t kFaultEvery = 4;  ///< rounds per fault-shard repair

enum class Kind { kFairShare, kSerial, kFifoUniform, kFifoFault };
constexpr Kind kKinds[] = {Kind::kFairShare, Kind::kSerial, Kind::kFifoUniform,
                           Kind::kFifoFault};
constexpr std::size_t kShards = std::size(kKinds);

std::shared_ptr<const gw::core::AllocationFunction> make_alloc(Kind kind) {
  switch (kind) {
    case Kind::kFairShare:
      return std::make_shared<gw::core::FairShareAllocation>();
    case Kind::kSerial:
      return std::make_shared<gw::core::GeneralSerialAllocation>(
          gw::core::GFunction::mg1(kScv));
    case Kind::kFifoUniform:
    case Kind::kFifoFault:
      break;
  }
  return std::make_shared<gw::core::ProportionalAllocation>();
}

/// E-SCALE's classed options: a 60-iteration budget and the lowered floor.
gw::ctrl::RepairPolicy classed_policy() {
  gw::ctrl::RepairPolicy policy;
  for (auto* options : {&policy.warm_solve, &policy.full_solve}) {
    options->max_iterations = 60;
    options->best_response.r_min = kFloor;
  }
  return policy;
}

/// The benchmark's view of one shard's game: per-class gamma and count.
struct Game {
  Kind kind = Kind::kFairShare;
  std::vector<oracle::UserClass> classes;
};

double fault_gamma(std::size_t a) {
  return 0.2 + 0.6 * static_cast<double>(a) / static_cast<double>(kClasses - 1);
}

std::vector<Game> initial_games(std::uint64_t seed) {
  gw::numerics::Rng rng(derive_seed(seed, 10));
  std::vector<Game> games;
  const double uniform_gamma = rng.uniform(kGammaMin, kGammaMax);
  for (const Kind kind : kKinds) {
    Game game{kind, {}};
    for (std::size_t a = 0; a < kClasses; ++a) {
      double gamma = uniform_gamma;
      if (kind == Kind::kFairShare || kind == Kind::kSerial) {
        gamma = rng.uniform(kGammaMin, kGammaMax);
      } else if (kind == Kind::kFifoFault) {
        gamma = fault_gamma(a);
      }
      game.classes.push_back({gamma, kUsers / kClasses});
    }
    games.push_back(std::move(game));
  }
  return games;
}

/// One round's churn for one shard.
struct ShardChurn {
  std::vector<std::pair<std::size_t, std::size_t>> counts;  ///< (class, n)
  std::vector<std::pair<std::size_t, double>> gammas;       ///< (class, g)
};

/// True on the rounds that stage and repair the fault shard.
bool fault_round(std::size_t round) {
  return round % kFaultEvery == kFaultEvery - 1;
}

/// True when shard s is staged and repaired in `round`.
bool repaired_in(std::size_t s, std::size_t round) {
  return kKinds[s] != Kind::kFifoFault || fault_round(round);
}

/// Generates each round's churn: two class-count changes per shard (within
/// 10% of the base class size) and, on the heterogeneous seeded shards, one
/// class-utility change. The fault shard's churn depends on the round
/// index only.
class ClassChurn {
 public:
  explicit ClassChurn(std::uint64_t seed) : rng_(derive_seed(seed, 11)) {}

  void next(std::vector<ShardChurn>& out) {
    out.assign(kShards, ShardChurn{});
    const std::size_t base = kUsers / kClasses;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (kKinds[s] == Kind::kFifoFault) {
        if (fault_round(round_)) {
          const std::size_t visit = round_ / kFaultEvery;
          out[s].counts.emplace_back(visit % kClasses, base + visit % 2);
        }
        continue;
      }
      for (int c = 0; c < 2; ++c) {
        const auto a = static_cast<std::size_t>(rng_.uniform_index(kClasses));
        const auto n = static_cast<std::size_t>(
            static_cast<double>(base) * rng_.uniform(0.9, 1.1));
        out[s].counts.emplace_back(a, n);
      }
      if (kKinds[s] == Kind::kFairShare || kKinds[s] == Kind::kSerial) {
        const auto a = static_cast<std::size_t>(rng_.uniform_index(kClasses));
        out[s].gammas.emplace_back(a, rng_.uniform(kGammaMin, kGammaMax));
      }
    }
    ++round_;
  }

 private:
  gw::numerics::Rng rng_;
  std::size_t round_ = 0;
};

std::vector<double> game_oracle(const Game& game,
                                const std::vector<double>& floors) {
  switch (game.kind) {
    case Kind::kFairShare:
      return oracle::serial_rates(game.classes, 1.0, kFloor);
    case Kind::kSerial:
      return oracle::serial_rates(game.classes, kScv, kFloor);
    case Kind::kFifoUniform:
    case Kind::kFifoFault:
      break;
  }
  return oracle::fifo_rates(game.classes, floors);
}

/// Served class rates match the closed form to this relative tolerance.
constexpr double kRelTolerance = 1e-6;

/// True when the shard's served classes match its closed form. Classes
/// served at or below the floor are placed at their served floor (the
/// solver pins inactive classes at r_min).
bool matches_oracle(const gw::ctrl::SolverShard& shard, const Game& game,
                    double& worst) {
  const auto& pop = shard.population();
  std::vector<double> floors(pop.k(), kFloor);
  for (std::size_t a = 0; a < pop.k(); ++a) {
    floors[a] = std::min(pop[a].rate, kFloor);
  }
  std::vector<double> expected;
  try {
    expected = game_oracle(game, floors);
  } catch (const std::runtime_error&) {
    return false;
  }
  bool ok = true;
  for (std::size_t a = 0; a < pop.k(); ++a) {
    const double error =
        std::abs(pop[a].rate - expected[a]) / std::max(expected[a], kFloor);
    if (!(error <= kRelTolerance)) ok = false;
    if (game.kind != Kind::kFifoFault) worst = std::max(worst, error);
  }
  return ok;
}

/// Oracle self-check on a 1000-fold smaller copy of each game (the
/// expanded congestion_of is O(N log N) per probe): the classed closed
/// form, expanded, must satisfy the KKT sign conditions.
void self_check_oracles(const std::vector<Game>& games, Result& result) {
  for (const Game& game : games) {
    Game small = game;
    for (auto& c : small.classes) c.count = std::max<std::size_t>(1, c.count / 1000);
    std::vector<double> floors(small.classes.size(), kFloor);
    const auto rates = oracle::expand(small.classes, game_oracle(small, floors));
    std::vector<double> gammas;
    for (const auto& c : small.classes) gammas.insert(gammas.end(), c.count, c.gamma);
    const double violation =
        oracle::kkt_violation(*make_alloc(game.kind), gammas, rates, kFloor);
    if (!(violation <= 1e-6)) {
      result.fail_check("classed oracle self-check, shard kind " +
                        std::to_string(static_cast<int>(game.kind)) +
                        ": KKT violation " +
                        std::to_string(violation));
    }
  }
}

/// Program objects of one pass (see churn.cpp's Wrap).
struct Wrap {
  trace::LayerStats* stats = nullptr;

  [[nodiscard]] std::shared_ptr<const gw::core::AllocationFunction> alloc(
      Kind kind) const {
    auto base = make_alloc(kind);
    if (stats == nullptr) return base;
    return std::make_shared<trace::TracedAllocation>(std::move(base), *stats);
  }
  [[nodiscard]] gw::core::UtilityPtr utility(double gamma) const {
    auto u = gw::core::make_linear(1.0, gamma);
    if (stats == nullptr) return u;
    return std::make_shared<trace::TracedUtility>(std::move(u), *stats);
  }
};

std::vector<gw::ctrl::SolverShard> build_shards(const std::vector<Game>& games,
                                                const Wrap& wrap) {
  std::vector<gw::ctrl::SolverShard> shards;
  shards.reserve(games.size());
  for (const Game& game : games) {
    std::vector<gw::core::RateClass> classes;
    gw::core::UtilityProfile profile;
    for (const auto& c : game.classes) {
      classes.push_back({0.5 / static_cast<double>(kUsers), 1.0, c.count});
      profile.push_back(wrap.utility(c.gamma));
    }
    shards.emplace_back(wrap.alloc(game.kind), std::move(profile),
                        gw::core::ClassedPopulation::from_classes(
                            std::move(classes)));
  }
  return shards;
}

/// Stages one round's churn on the shards and records it in `games`.
void stage_round(const std::vector<ShardChurn>& churn, const Wrap& wrap,
                 std::vector<gw::ctrl::SolverShard>& shards,
                 std::vector<Game>& games) {
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const auto& [a, n] : churn[s].counts) {
      shards[s].stage_class_count(a, n);
      games[s].classes[a].count = n;
    }
    for (const auto& [a, gamma] : churn[s].gammas) {
      shards[s].stage_class_utility(a, wrap.utility(gamma));
      games[s].classes[a].gamma = gamma;
    }
  }
}

/// Counts a repair as attempted and, on the fault shard, failed; any
/// other repair that misses its closed form fails the run's check.
void judge(std::size_t s, const gw::ctrl::RepairOutcome& outcome,
           const gw::ctrl::SolverShard& shard, const Game& game,
           Result& result, double& worst) {
  ++result.attempted;
  const bool ok = outcome.converged && matches_oracle(shard, game, worst);
  if (kKinds[s] == Kind::kFifoFault) {
    if (!ok) ++result.failed;
    return;
  }
  if (!ok) {
    result.fail_check("classed shard " + std::to_string(s) +
                      (outcome.converged ? " missed its closed form"
                                         : " did not converge"));
  }
}

std::uint64_t hash_population(const gw::ctrl::SolverShard& shard,
                              std::uint64_t h) {
  for (const auto& c : shard.population().classes()) h = hash_bits(c.rate, h);
  return h;
}

void run_traced(const Options& options, const std::vector<Game>& start,
                Result& result) {
  const auto policy = classed_policy();
  trace::LayerReport report;
  std::vector<ShardChurn> churn;
  double worst = 0.0;

  // Pass A: untraced reference.
  std::vector<std::uint64_t> reference;
  double untraced = 0.0;
  {
    auto games = start;
    auto shards = build_shards(games, Wrap{});
    ClassChurn source(options.seed);
    for (std::size_t r = 0; r < kTracedRounds; ++r) {
      source.next(churn);
      stage_round(churn, Wrap{}, shards, games);
      std::uint64_t h = kHashSeed;
      for (std::size_t s = 0; s < kShards; ++s) {
        if (!repaired_in(s, r)) continue;
        const auto t0 = Clock::now();
        const auto outcome = shards[s].repair(policy);
        untraced += seconds_between(t0, Clock::now());
        judge(s, outcome, shards[s], games[s], result, worst);
        h = hash_population(shards[s], h);
      }
      reference.push_back(h);
    }
  }

  // Pass B: the same rounds over tracing proxies.
  trace::LayerStats stats;
  const Wrap wrap{&stats};
  auto games = start;
  auto shards = build_shards(games, wrap);
  stats = trace::LayerStats{};
  ClassChurn source(options.seed);
  trace::LayerReport::arm_work_counts();
  double repairs = 0.0;
  const auto loop_start = Clock::now();
  for (std::size_t r = 0; r < kTracedRounds; ++r) {
    source.next(churn);
    stage_round(churn, wrap, shards, games);
    std::uint64_t h = kHashSeed;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (!repaired_in(s, r)) continue;
      const auto t0 = Clock::now();
      const auto outcome = shards[s].repair(policy);
      const double seconds = seconds_between(t0, Clock::now());
      repairs += seconds;
      (outcome.path == RepairPath::kClassRepair ? report.rung_class_repair_ms
                                                : report.rung_full_solve_ms) +=
          seconds * 1e3;
      if (outcome.path == RepairPath::kFullSolve) {
        report.full_solves += 1.0;
        // The classed ladder escalates only when the warm classed solve
        // fails (no bulk churn here: at most 3 of 32 classes move).
        report.escalations += 1.0;
      }
      report.shards_repaired += 1.0;
      h = hash_population(shards[s], h);
    }
    if (h != reference[r]) {
      result.fail_check("traced classed repairs diverged at round " +
                        std::to_string(r));
    }
  }
  const double loop = seconds_between(loop_start, Clock::now());
  report.take_work_counts();
  report.eval = stats;
  report.solver_self_ms = repairs * 1e3 - stats.eval_ms();
  report.overhead_pct = 100.0 * (repairs / untraced - 1.0);
  report.attributed_pct = 100.0 * repairs / loop;
  report.emit(result);
}

}  // namespace

void run_classed_million(const Options& options, Result& result) {
  const auto start = initial_games(options.seed);
  self_check_oracles(start, result);
  if (options.trace) {
    run_traced(options, start, result);
    return;
  }

  // Set-up: each shard cold-solves its classed equilibrium on construction.
  EndToEnd e2e;
  std::optional<std::vector<gw::ctrl::SolverShard>> shards;
  for (int s = 0; s < kSetups; ++s) {
    shards.reset();
    const auto t0 = Clock::now();
    shards.emplace(build_shards(start, Wrap{}));
    e2e.setups.push_back(seconds_between(t0, Clock::now()));
  }

  double worst = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (kKinds[s] != Kind::kFifoFault &&
        !matches_oracle((*shards)[s], start[s], worst)) {
      result.fail_check("classed shard " + std::to_string(s) +
                        " set-up missed its closed form");
    }
  }

  const auto policy = classed_policy();
  auto games = start;
  ClassChurn source(options.seed);
  std::vector<ShardChurn> churn;
  const auto begin = Clock::now();
  for (std::size_t r = 0; r % kFaultEvery != 0 ||
                          seconds_between(begin, Clock::now()) < options.seconds;
       ++r) {
    source.next(churn);
    stage_round(churn, Wrap{}, *shards, games);
    double round = 0.0;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (!repaired_in(s, r)) continue;
      const auto t0 = Clock::now();
      const auto outcome = (*shards)[s].repair(policy);
      const double seconds = seconds_between(t0, Clock::now());
      (kKinds[s] == Kind::kFifoFault ? e2e.failed_seconds : round) += seconds;
      judge(s, outcome, (*shards)[s], games[s], result, worst);
    }
    e2e.latencies.push_back(round);
  }
  e2e.work_units = static_cast<double>(result.attempted - result.failed);
  std::fprintf(stderr,
               "perfbench: %zu rounds; worst relative |served - closed form| "
               "on the converging shards %.3g\n",
               e2e.latencies.size(), worst);
  e2e.emit(result);
}

}  // namespace perfbench
