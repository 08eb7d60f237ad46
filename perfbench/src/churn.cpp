// churn-steady and churn-burst: one sharded expanded ctrl::Controller,
// driven closed-loop by a single control loop that repairs shards inline.
//
// Twelve 64-user shards interleave Fair Share, FIFO (ProportionalAllocation)
// and the general serial discipline over M/G/1 with scv = 2 (scv = 1 would
// be M/M/1, a second copy of Fair Share). Every user has a linear utility
// U = r - gamma c with gamma drawn from [0.3, 0.85], the range of the
// library's churn generators, so every served equilibrium has a closed
// form (oracle.hpp) that the run checks after each operation.
//
// churn-steady feeds PoissonChurn in fixed 32-update batches. churn-burst
// feeds BurstChurn whole-shard bursts: each burst rewrites all 64 users of
// one shard with gamma alternating 0.3 / 0.85, and the generator flips
// which parity gets 0.3 from one burst to the next. The phase alone moves
// a cold solve's cost up to fivefold (Gauss-Seidel order), so one batch
// holds six bursts on six consecutive shards: every discipline once in
// each phase, and every batch the same make-up.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/fair_share.hpp"
#include "core/gfunction.hpp"
#include "core/proportional.hpp"
#include "core/serial_general.hpp"
#include "core/utility.hpp"
#include "ctrl/churn.hpp"
#include "ctrl/controller.hpp"
#include "numerics/rng.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gw::ctrl::RateUpdate;
using gw::ctrl::RepairPath;

constexpr std::size_t kShards = 12;
constexpr std::size_t kShardUsers = 64;
constexpr std::size_t kUsers = kShards * kShardUsers;
constexpr std::size_t kSteadyBatch = 32;
constexpr std::size_t kBurstsPerBatch = 6;
constexpr double kGammaMin = 0.3;
constexpr double kGammaMax = 0.85;
constexpr double kScv = 2.0;
/// The best-response rate floor (BestResponseOptions::r_min): users a
/// cold solve leaves inactive sit here.
constexpr double kFloor = 1e-6;
constexpr int kSetups = 3;
/// Operations in each traced pass.
constexpr std::size_t kTracedSteadyBatches = 600;
constexpr std::size_t kTracedBurstBatches = 2;

enum class Discipline { kFairShare, kFifo, kSerial };

Discipline discipline_of(std::size_t shard) {
  return static_cast<Discipline>(shard % 3);
}

std::shared_ptr<const gw::core::AllocationFunction> make_alloc(Discipline d) {
  switch (d) {
    case Discipline::kFairShare:
      return std::make_shared<gw::core::FairShareAllocation>();
    case Discipline::kFifo:
      return std::make_shared<gw::core::ProportionalAllocation>();
    case Discipline::kSerial:
      break;
  }
  return std::make_shared<gw::core::GeneralSerialAllocation>(
      gw::core::GFunction::mg1(kScv));
}

/// E-CHURN's policy: ladder defaults with a 2000-sweep cold-solve budget,
/// which whole-shard burst profiles (two interleaved gamma classes) need
/// under Fair Share.
gw::ctrl::RepairPolicy churn_policy() {
  gw::ctrl::RepairPolicy policy;
  policy.full_solve.max_iterations = 2000;
  return policy;
}

double gamma_of(const gw::core::UtilityPtr& utility) {
  return dynamic_cast<const gw::core::LinearUtility&>(*utility).gamma();
}

/// Program objects of one pass: the library's own for untraced passes,
/// tracing proxies (and per-shard brackets) for traced ones.
struct Wrap {
  trace::LayerStats* stats = nullptr;
  std::vector<trace::Bracket>* brackets = nullptr;

  [[nodiscard]] std::shared_ptr<const gw::core::AllocationFunction> alloc(
      std::size_t shard) const {
    auto base = make_alloc(discipline_of(shard));
    if (stats == nullptr) return base;
    return std::make_shared<trace::TracedAllocation>(
        std::move(base), *stats,
        brackets != nullptr ? &(*brackets)[shard] : nullptr);
  }
  [[nodiscard]] gw::core::UtilityPtr utility(gw::core::UtilityPtr u) const {
    if (stats == nullptr) return u;
    return std::make_shared<trace::TracedUtility>(std::move(u), *stats);
  }
};

std::vector<gw::ctrl::SolverShard> build_shards(
    const std::vector<double>& gammas, const Wrap& wrap) {
  std::vector<gw::ctrl::SolverShard> shards;
  shards.reserve(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    gw::core::UtilityProfile profile;
    for (std::size_t i = 0; i < kShardUsers; ++i) {
      profile.push_back(wrap.utility(
          gw::core::make_linear(1.0, gammas[k * kShardUsers + i])));
    }
    shards.emplace_back(wrap.alloc(k), std::move(profile));
  }
  return shards;
}

std::unique_ptr<gw::ctrl::Controller> build_controller(
    const std::vector<double>& gammas, const Wrap& wrap) {
  gw::ctrl::ControllerConfig config;
  config.policy = churn_policy();
  return std::make_unique<gw::ctrl::Controller>(build_shards(gammas, wrap),
                                                config);
}

/// The workload's churn, generated one operation at a time (pre-generating
/// a run's updates would put the benchmark's own input into peak RSS).
class ChurnSource {
 public:
  ChurnSource(bool burst, std::uint64_t seed) {
    if (burst) {
      // A one-shard generator flips the phase on every burst; burst j is
      // then placed on shard (j + j / 12) mod 12, so a batch covers six
      // consecutive shards and a shard's next visit has the other phase.
      gw::ctrl::BurstChurnOptions options;
      options.block_size = kShardUsers;
      options.burst_length = kShardUsers;
      options.gamma_low = kGammaMin;
      options.gamma_high = kGammaMax;
      bursts_.emplace(kShardUsers, options, seed);
    } else {
      gw::ctrl::PoissonChurnOptions options;
      options.gamma_min = kGammaMin;
      options.gamma_max = kGammaMax;
      poisson_.emplace(kUsers, options, seed);
    }
  }

  void next(std::vector<RateUpdate>& batch) {
    batch.clear();
    if (bursts_) {
      for (std::size_t b = 0; b < kBurstsPerBatch; ++b, ++burst_) {
        const std::size_t shard = (burst_ + burst_ / kShards) % kShards;
        for (std::size_t i = 0; i < kShardUsers; ++i) {
          RateUpdate update = bursts_->next();
          update.user += shard * kShardUsers;
          batch.push_back(std::move(update));
        }
      }
    } else {
      for (std::size_t i = 0; i < kSteadyBatch; ++i) {
        batch.push_back(poisson_->next());
      }
    }
  }

 private:
  std::optional<gw::ctrl::PoissonChurn> poisson_;
  std::optional<gw::ctrl::BurstChurn> bursts_;
  std::size_t burst_ = 0;  ///< bursts emitted so far
};

std::vector<double> initial_gammas(std::uint64_t seed) {
  gw::numerics::Rng rng(derive_seed(seed, 0));
  std::vector<double> gammas(kUsers);
  for (double& gamma : gammas) gamma = rng.uniform(kGammaMin, kGammaMax);
  return gammas;
}

/// Where a served point pins its inactive users: cold solves leave them at
/// the best-response floor, the repair ladder at its own 1e-9 floor. Users
/// served above kFloor are active and get the default floor.
std::vector<double> served_floors(std::span<const double> served) {
  std::vector<double> floors(served.size(), kFloor);
  for (std::size_t i = 0; i < served.size(); ++i) {
    floors[i] = std::min(served[i], kFloor);
  }
  return floors;
}

/// The closed-form equilibrium of shard k's current profile. `served`
/// places FIFO's inactive users (see served_floors); it may be empty.
std::vector<double> shard_oracle(std::size_t k,
                                 const std::vector<double>& gammas,
                                 std::span<const double> served) {
  const std::vector<double> local(
      gammas.begin() + static_cast<std::ptrdiff_t>(k * kShardUsers),
      gammas.begin() + static_cast<std::ptrdiff_t>((k + 1) * kShardUsers));
  const auto classes = oracle::singletons(local);
  switch (discipline_of(k)) {
    case Discipline::kFairShare:
      return oracle::serial_rates(classes, 1.0, kFloor);
    case Discipline::kFifo:
      return oracle::fifo_rates(
          classes, served.empty() ? std::vector<double>(kShardUsers, kFloor)
                                  : served_floors(served));
    case Discipline::kSerial:
      break;
  }
  return oracle::serial_rates(classes, kScv, kFloor);
}

/// Served rates may differ from the closed form by the solvers' tolerance.
constexpr double kRateTolerance = 1e-7;

/// Checks shard k's served rates against its closed form.
void check_shard(std::size_t k, std::span<const double> served,
                 const std::vector<double>& gammas, Result& result,
                 double* worst) {
  const auto expected = shard_oracle(k, gammas, served);
  for (std::size_t i = 0; i < kShardUsers; ++i) {
    const double error = std::abs(served[i] - expected[i]);
    double& w = worst[static_cast<int>(discipline_of(k))];
    w = std::max(w, error);
    if (!(error <= kRateTolerance)) {
      result.fail_check("shard " + std::to_string(k) + " user " +
                        std::to_string(i) + " served " +
                        std::to_string(served[i]) + ", closed form " +
                        std::to_string(expected[i]));
      return;
    }
  }
}

/// Oracle self-check: the closed form of the first shard of each
/// discipline satisfies the KKT sign conditions under central differences
/// of the program's public congestion_of.
void self_check_oracles(const std::vector<double>& gammas, Result& result) {
  for (std::size_t k = 0; k < 3; ++k) {
    const std::vector<double> local(
        gammas.begin() + static_cast<std::ptrdiff_t>(k * kShardUsers),
        gammas.begin() + static_cast<std::ptrdiff_t>((k + 1) * kShardUsers));
    const double violation = oracle::kkt_violation(
        *make_alloc(discipline_of(k)), local, shard_oracle(k, gammas, {}),
        kFloor);
    if (!(violation <= 1e-6)) {
      result.fail_check("oracle self-check, shard " + std::to_string(k) +
                        ": KKT violation " + std::to_string(violation));
    }
  }
}

std::uint64_t hash_rates(std::span<const double> rates,
                         std::uint64_t h = kHashSeed) {
  for (const double r : rates) h = hash_bits(r, h);
  return h;
}

/// Shards the batch touched, in shard order.
std::vector<std::size_t> touched_shards(const std::vector<RateUpdate>& batch) {
  std::vector<char> dirty(kShards, 0);
  for (const auto& u : batch) dirty[u.user / kShardUsers] = 1;
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < kShards; ++k) {
    if (dirty[k] != 0) out.push_back(k);
  }
  return out;
}

void apply_gammas(const std::vector<RateUpdate>& batch,
                  std::vector<double>& gammas) {
  for (const auto& u : batch) gammas[u.user] = gamma_of(u.utility);
}

/// Checks the shards a batch repaired against the closed forms.
void check_batch(const std::vector<RateUpdate>& batch,
                 const std::vector<double>& served,
                 const std::vector<double>& gammas, Result& result,
                 double* worst) {
  for (const std::size_t k : touched_shards(batch)) {
    check_shard(k,
                std::span<const double>(served).subspan(k * kShardUsers,
                                                        kShardUsers),
                gammas, result, worst);
  }
}

void run_traced(const Options& options, bool burst,
                const std::vector<double>& start_gammas, Result& result) {
  const std::size_t batches =
      burst ? kTracedBurstBatches : kTracedSteadyBatches;
  const std::uint64_t churn_seed = derive_seed(options.seed, 1);
  trace::LayerReport report;
  std::vector<RateUpdate> batch;
  double worst[3] = {0.0, 0.0, 0.0};

  // Pass A: untraced reference.
  std::vector<std::uint64_t> reference;
  double untraced_apply = 0.0;
  {
    auto gammas = start_gammas;
    auto ctrl = build_controller(gammas, Wrap{});
    ChurnSource source(burst, churn_seed);
    for (std::size_t b = 0; b < batches; ++b) {
      source.next(batch);
      apply_gammas(batch, gammas);
      ctrl->submit(batch);
      const auto t0 = Clock::now();
      (void)ctrl->apply_pending();
      untraced_apply += seconds_between(t0, Clock::now());
      ++result.attempted;
      const auto served = ctrl->snapshot().rates;
      check_batch(batch, served, gammas, result, worst);
      reference.push_back(hash_rates(served));
    }
  }

  // Pass B: the controller over tracing proxies; per-shard brackets split
  // apply_pending into shard repairs and the controller's own time.
  {
    trace::LayerStats stats;
    std::vector<trace::Bracket> brackets(kShards);
    const Wrap wrap{&stats, &brackets};
    auto ctrl = build_controller(start_gammas, wrap);
    ChurnSource source(burst, churn_seed);
    double apply = 0.0;
    double in_brackets = 0.0;
    const auto loop_start = Clock::now();
    for (std::size_t b = 0; b < batches; ++b) {
      source.next(batch);
      for (auto& u : batch) u.utility = wrap.utility(u.utility);
      ctrl->submit(batch);
      for (auto& bracket : brackets) bracket.reset();
      const auto t0 = Clock::now();
      const auto outcome = ctrl->apply_pending();
      apply += seconds_between(t0, Clock::now());
      for (const auto& bracket : brackets) {
        in_brackets += std::chrono::duration<double>(bracket.span()).count();
      }
      report.shards_repaired += static_cast<double>(outcome.shards_repaired);
      if (hash_rates(ctrl->snapshot().rates) != reference[b]) {
        result.fail_check("traced controller diverged from untraced at batch " +
                          std::to_string(b));
      }
    }
    const double loop = seconds_between(loop_start, Clock::now());
    report.batch_self_ms = (apply - in_brackets) * 1e3;
    report.overhead_pct = 100.0 * (apply / untraced_apply - 1.0);
    report.attributed_pct = 100.0 * apply / loop;
  }

  // Pass C: SolverShard::repair replay of the same batches, timed per
  // repair and grouped by the rung that produced the served point.
  {
    trace::LayerStats stats;
    const Wrap wrap{&stats, nullptr};
    auto shards = build_shards(start_gammas, wrap);
    stats = trace::LayerStats{};
    const auto policy = churn_policy();
    ChurnSource source(burst, churn_seed);
    trace::LayerReport::arm_work_counts();
    double repairs = 0.0;
    for (std::size_t b = 0; b < batches; ++b) {
      source.next(batch);
      for (const auto& u : batch) {
        shards[u.user / kShardUsers].stage(u.user % kShardUsers,
                                           wrap.utility(u.utility));
      }
      for (const std::size_t k : touched_shards(batch)) {
        const auto t0 = Clock::now();
        const auto outcome = shards[k].repair(policy);
        const double ms = seconds_between(t0, Clock::now()) * 1e3;
        repairs += ms;
        const bool bulk = 2 * outcome.users_churned > kShardUsers;
        switch (outcome.path) {
          case RepairPath::kSingleUser: report.rung_single_user_ms += ms; break;
          case RepairPath::kRelax: report.rung_relax_ms += ms; break;
          case RepairPath::kNewton: report.rung_newton_ms += ms; break;
          case RepairPath::kWarmSolve: report.rung_warm_solve_ms += ms; break;
          case RepairPath::kFullSolve: report.rung_full_solve_ms += ms; break;
          case RepairPath::kClassRepair:
            report.rung_class_repair_ms += ms;
            break;
          case RepairPath::kNoop: break;
        }
        if (outcome.path == RepairPath::kNewton ||
            outcome.path == RepairPath::kWarmSolve ||
            (outcome.path == RepairPath::kFullSolve && !bulk)) {
          report.escalations += 1.0;
        }
        if (outcome.path == RepairPath::kFullSolve) report.full_solves += 1.0;
      }
      std::uint64_t h = kHashSeed;
      for (const auto& shard : shards) h = hash_rates(shard.rates(), h);
      if (h != reference[b]) {
        result.fail_check("repair replay diverged from the controller at "
                          "batch " + std::to_string(b));
      }
    }
    report.take_work_counts();
    report.eval = stats;
    report.solver_self_ms = repairs - stats.eval_ms();
  }
  report.emit(result);
}

void run_churn(const Options& options, bool burst, Result& result) {
  const auto start_gammas = initial_gammas(options.seed);
  self_check_oracles(start_gammas, result);
  if (options.trace) {
    run_traced(options, burst, start_gammas, result);
    return;
  }

  // Set-up: bringing the controller up cold-solves every shard.
  EndToEnd e2e;
  std::unique_ptr<gw::ctrl::Controller> ctrl;
  for (int s = 0; s < kSetups; ++s) {
    ctrl.reset();
    const auto t0 = Clock::now();
    ctrl = build_controller(start_gammas, Wrap{});
    e2e.setups.push_back(seconds_between(t0, Clock::now()));
  }
  double worst[3] = {0.0, 0.0, 0.0};
  {
    const auto served = ctrl->snapshot().rates;
    for (std::size_t k = 0; k < kShards; ++k) {
      check_shard(k,
                  std::span<const double>(served).subspan(k * kShardUsers,
                                                          kShardUsers),
                  start_gammas, result, worst);
    }
  }

  auto gammas = start_gammas;
  std::size_t unconverged = 0;
  ChurnSource source(burst, derive_seed(options.seed, 1));
  std::vector<RateUpdate> batch;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < options.seconds) {
    source.next(batch);
    apply_gammas(batch, gammas);
    ctrl->submit(batch);
    const auto t0 = Clock::now();
    const auto outcome = ctrl->apply_pending();
    e2e.latencies.push_back(seconds_between(t0, Clock::now()));
    e2e.work_units += static_cast<double>(outcome.updates_applied);
    ++result.attempted;
    if (!outcome.all_converged) ++unconverged;
    check_batch(batch, ctrl->snapshot().rates, gammas, result, worst);
  }
  std::fprintf(stderr,
               "perfbench: %zu operations, %zu reporting an unconverged "
               "repair; worst |served - closed form|: fair share %.3g, "
               "fifo %.3g, serial %.3g\n",
               e2e.latencies.size(), unconverged, worst[0], worst[1],
               worst[2]);
  e2e.emit(result);
}

}  // namespace

void run_churn_steady(const Options& options, Result& result) {
  run_churn(options, /*burst=*/false, result);
}

void run_churn_burst(const Options& options, Result& result) {
  run_churn(options, /*burst=*/true, result);
}

}  // namespace perfbench
