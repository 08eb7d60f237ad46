// Tracing proxies for the traced run: forwarding wrappers around a
// core::AllocationFunction and a core::Utility that count every call and
// time the evaluation-kernel calls, from outside the program.
//
// The allocation proxy overrides every virtual of AllocationFunction, so
// each call reaches the wrapped discipline's own implementation: a missed
// override would silently fall back to the base class's Richardson numeric
// default and change the results (the traced run checks bit-identity
// against the untraced one to catch that). Probe-sized calls are counted
// but not timed: scan probes, single-user congestion_of_into (the probe of
// a discipline without a scan fast path) and utility calls each cost a few
// tens of nanoseconds, and a ~20 ns clock read on each side would swamp
// them; their time stays in the caller's (the solver's) self time.
//
// Single-threaded by design: the traced passes repair shards inline, so
// the accumulators need no synchronisation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/allocation.hpp"
#include "core/utility.hpp"

namespace perfbench::trace {

/// Calls and busy time of one evaluation-kernel family.
struct Timed {
  std::uint64_t calls = 0;
  Clock::duration busy{};
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(busy).count();
  }
};

/// Accumulators of one traced pass.
struct LayerStats {
  Timed congestion;    ///< congestion_into
  Timed derivative;    ///< jacobian_into, second_partials_into
  Timed per_entry;     ///< partial, second_partial
  Timed scan_prepare;  ///< scan_prepare, scan_prepare_classes
  Timed classed;       ///< congestion_classes_into, jacobian_classes_into
  std::uint64_t congestion_of = 0;  ///< congestion_of_into, counted
  std::uint64_t scan_probes = 0;    ///< scan_congestion_of(_class), counted
  std::uint64_t utility_calls = 0;

  /// Time inside every timed evaluation call.
  [[nodiscard]] double eval_ms() const {
    return congestion.ms() + derivative.ms() + per_entry.ms() +
           scan_prepare.ms() + classed.ms();
  }
};

/// Wall-clock extent of one shard's evaluation calls since the last reset:
/// from the entry of the first timed call to the exit of the last one.
struct Bracket {
  Clock::time_point first{};
  Clock::time_point last{};
  bool seen = false;

  void reset() { seen = false; }
  [[nodiscard]] Clock::duration span() const {
    return seen ? last - first : Clock::duration{};
  }
};

/// Every per-layer metric of a traced run. A workload fills the layers it
/// drives; the others print 0, meaning the layer did no work there. Times
/// are totals over the traced pass, counts are exact.
struct LayerReport {
  double batch_self_ms = 0.0;  ///< apply_pending minus the shard brackets
  double shards_repaired = 0.0;
  double rung_single_user_ms = 0.0;  ///< repairs that ended on each rung
  double rung_relax_ms = 0.0;
  double rung_newton_ms = 0.0;
  double rung_warm_solve_ms = 0.0;
  double rung_full_solve_ms = 0.0;
  double rung_class_repair_ms = 0.0;
  double escalations = 0.0;
  double full_solves = 0.0;
  double solver_self_ms = 0.0;  ///< repair time minus evaluation time
  double best_response_calls = 0.0;  ///< obs::work counts
  double gs_sweeps = 0.0;
  double users_evaluated = 0.0;
  double jacobian_cells = 0.0;
  LayerStats eval;
  double sim_events = 0.0;
  double sim_kernel_ns_per_event = 0.0;
  double sim_fifo_ns_per_event = 0.0;
  double sim_fs_oracle_ns_per_event = 0.0;
  double sim_drr_ns_per_event = 0.0;
  double sim_sfq_ns_per_event = 0.0;
  double overhead_pct = 0.0;    ///< traced wall against untraced wall
  double attributed_pct = 0.0;  ///< share of wall inside layer spans

  /// Zeroes and arms the library's obs::work meter.
  static void arm_work_counts();
  /// Disarms the meter and copies its solver counts into the core.* fields.
  void take_work_counts();

  void emit(Result& result) const;
};

class TracedAllocation final : public gw::core::AllocationFunction {
 public:
  /// `bracket` may be null; `stats` must outlive the proxy.
  TracedAllocation(std::shared_ptr<const gw::core::AllocationFunction> inner,
                   LayerStats& stats, Bracket* bracket = nullptr);

  [[nodiscard]] std::string name() const override;

  void congestion_into(std::span<const double> rates, std::span<double> out,
                       gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double congestion_of_into(
      std::size_t i, std::span<const double> rates,
      gw::core::EvalWorkspace& ws) const override;
  void jacobian_into(std::span<const double> rates, gw::numerics::Matrix& out,
                     gw::core::EvalWorkspace& ws) const override;
  void second_partials_into(std::span<const double> rates,
                            gw::numerics::Matrix& out,
                            gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool scan_prepare(std::size_t i, std::span<const double> rates,
                                  gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double scan_congestion_of(
      std::size_t i, double x, std::span<const double> rates,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool congestion_classes_into(
      const gw::core::ClassedPopulation& pop, std::span<double> out,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool jacobian_classes_into(
      const gw::core::ClassedPopulation& pop, gw::numerics::Matrix& cross,
      std::span<double> own, gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] bool scan_prepare_classes(
      std::size_t a, const gw::core::ClassedPopulation& pop,
      gw::core::EvalWorkspace& ws) const override;
  [[nodiscard]] double scan_congestion_of_class(
      std::size_t a, double x, const gw::core::ClassedPopulation& pop,
      gw::core::EvalWorkspace& ws) const override;

  // The per-entry derivatives are declared without `override`: they
  // override the base virtuals while those exist, and the proxy still
  // compiles (with eval.per_entry reading 0) once the per-entry path is
  // removed from AllocationFunction.
  [[nodiscard]] double partial(std::size_t i, std::size_t j,
                               const std::vector<double>& rates) const;
  [[nodiscard]] double second_partial(std::size_t i, std::size_t j,
                                      const std::vector<double>& rates) const;

 private:
  class Scope;

  std::shared_ptr<const gw::core::AllocationFunction> inner_;
  LayerStats& stats_;
  Bracket* bracket_;
};

class TracedUtility final : public gw::core::Utility {
 public:
  TracedUtility(gw::core::UtilityPtr inner, LayerStats& stats);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double value(double r, double c) const override;
  [[nodiscard]] double du_dr(double r, double c) const override;
  [[nodiscard]] double du_dc(double r, double c) const override;
  [[nodiscard]] double d2u_dr2(double r, double c) const override;
  [[nodiscard]] double d2u_dc2(double r, double c) const override;
  [[nodiscard]] double d2u_drdc(double r, double c) const override;
  [[nodiscard]] bool in_au() const override;

 private:
  gw::core::UtilityPtr inner_;
  LayerStats& stats_;
};

}  // namespace perfbench::trace
