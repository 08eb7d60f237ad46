#include "trace.hpp"

#include <cmath>

#include "obs/perfcount.hpp"

namespace perfbench::trace {

namespace {

// Forwarders for the per-entry derivatives: the requires-checks keep the
// proxy compiling whether or not AllocationFunction still declares them.
template <class Alloc>
double forward_partial(const Alloc& alloc, std::size_t i, std::size_t j,
                       const std::vector<double>& rates) {
  if constexpr (requires { alloc.partial(i, j, rates); }) {
    return alloc.partial(i, j, rates);
  } else {
    return NAN;
  }
}

template <class Alloc>
double forward_second_partial(const Alloc& alloc, std::size_t i,
                              std::size_t j, const std::vector<double>& rates) {
  if constexpr (requires { alloc.second_partial(i, j, rates); }) {
    return alloc.second_partial(i, j, rates);
  } else {
    return NAN;
  }
}

}  // namespace

/// Times one forwarded call into `family` and widens the shard bracket.
class TracedAllocation::Scope {
 public:
  Scope(const TracedAllocation& owner, Timed& family)
      : bracket_(owner.bracket_), family_(family), start_(Clock::now()) {
    ++family_.calls;
    if (bracket_ != nullptr && !bracket_->seen) {
      bracket_->first = start_;
      bracket_->seen = true;
    }
  }
  ~Scope() {
    const auto end = Clock::now();
    family_.busy += end - start_;
    if (bracket_ != nullptr) bracket_->last = end;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Bracket* bracket_;
  Timed& family_;
  Clock::time_point start_;
};

TracedAllocation::TracedAllocation(
    std::shared_ptr<const gw::core::AllocationFunction> inner,
    LayerStats& stats, Bracket* bracket)
    : inner_(std::move(inner)), stats_(stats), bracket_(bracket) {}

std::string TracedAllocation::name() const { return inner_->name(); }

void TracedAllocation::congestion_into(std::span<const double> rates,
                                       std::span<double> out,
                                       gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.congestion);
  inner_->congestion_into(rates, out, ws);
}

double TracedAllocation::congestion_of_into(
    std::size_t i, std::span<const double> rates,
    gw::core::EvalWorkspace& ws) const {
  ++stats_.congestion_of;
  return inner_->congestion_of_into(i, rates, ws);
}

void TracedAllocation::jacobian_into(std::span<const double> rates,
                                     gw::numerics::Matrix& out,
                                     gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.derivative);
  inner_->jacobian_into(rates, out, ws);
}

void TracedAllocation::second_partials_into(
    std::span<const double> rates, gw::numerics::Matrix& out,
    gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.derivative);
  inner_->second_partials_into(rates, out, ws);
}

bool TracedAllocation::scan_prepare(std::size_t i,
                                    std::span<const double> rates,
                                    gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.scan_prepare);
  return inner_->scan_prepare(i, rates, ws);
}

double TracedAllocation::scan_congestion_of(
    std::size_t i, double x, std::span<const double> rates,
    gw::core::EvalWorkspace& ws) const {
  ++stats_.scan_probes;
  return inner_->scan_congestion_of(i, x, rates, ws);
}

bool TracedAllocation::congestion_classes_into(
    const gw::core::ClassedPopulation& pop, std::span<double> out,
    gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.classed);
  return inner_->congestion_classes_into(pop, out, ws);
}

bool TracedAllocation::jacobian_classes_into(
    const gw::core::ClassedPopulation& pop, gw::numerics::Matrix& cross,
    std::span<double> own, gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.classed);
  return inner_->jacobian_classes_into(pop, cross, own, ws);
}

bool TracedAllocation::scan_prepare_classes(
    std::size_t a, const gw::core::ClassedPopulation& pop,
    gw::core::EvalWorkspace& ws) const {
  const Scope scope(*this, stats_.scan_prepare);
  return inner_->scan_prepare_classes(a, pop, ws);
}

double TracedAllocation::scan_congestion_of_class(
    std::size_t a, double x, const gw::core::ClassedPopulation& pop,
    gw::core::EvalWorkspace& ws) const {
  ++stats_.scan_probes;
  return inner_->scan_congestion_of_class(a, x, pop, ws);
}

double TracedAllocation::partial(std::size_t i, std::size_t j,
                                 const std::vector<double>& rates) const {
  const Scope scope(*this, stats_.per_entry);
  return forward_partial(*inner_, i, j, rates);
}

double TracedAllocation::second_partial(
    std::size_t i, std::size_t j, const std::vector<double>& rates) const {
  const Scope scope(*this, stats_.per_entry);
  return forward_second_partial(*inner_, i, j, rates);
}

TracedUtility::TracedUtility(gw::core::UtilityPtr inner, LayerStats& stats)
    : inner_(std::move(inner)), stats_(stats) {}

std::string TracedUtility::name() const { return inner_->name(); }

double TracedUtility::value(double r, double c) const {
  ++stats_.utility_calls;
  return inner_->value(r, c);
}
double TracedUtility::du_dr(double r, double c) const {
  ++stats_.utility_calls;
  return inner_->du_dr(r, c);
}
double TracedUtility::du_dc(double r, double c) const {
  ++stats_.utility_calls;
  return inner_->du_dc(r, c);
}
double TracedUtility::d2u_dr2(double r, double c) const {
  ++stats_.utility_calls;
  return inner_->d2u_dr2(r, c);
}
double TracedUtility::d2u_dc2(double r, double c) const {
  ++stats_.utility_calls;
  return inner_->d2u_dc2(r, c);
}
double TracedUtility::d2u_drdc(double r, double c) const {
  ++stats_.utility_calls;
  return inner_->d2u_drdc(r, c);
}
bool TracedUtility::in_au() const { return inner_->in_au(); }

void LayerReport::arm_work_counts() {
  gw::obs::work::reset();
  gw::obs::work::set_armed(true);
}

void LayerReport::take_work_counts() {
  using gw::obs::work::Kind;
  gw::obs::work::set_armed(false);
  const auto work = gw::obs::work::collect();
  best_response_calls = static_cast<double>(work[Kind::kBestResponseCalls]);
  gs_sweeps = static_cast<double>(work[Kind::kGsSweeps]);
  users_evaluated = static_cast<double>(work[Kind::kUsersEvaluated]);
  jacobian_cells = static_cast<double>(work[Kind::kJacobianCells]);
}

void LayerReport::emit(Result& result) const {
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  result.add("ctrl.batch_self_ms", batch_self_ms, "ms");
  result.add("ctrl.shards_repaired", shards_repaired, "count");
  result.add("ctrl.rung.single_user.ms", rung_single_user_ms, "ms");
  result.add("ctrl.rung.relax.ms", rung_relax_ms, "ms");
  result.add("ctrl.rung.newton.ms", rung_newton_ms, "ms");
  result.add("ctrl.rung.warm_solve.ms", rung_warm_solve_ms, "ms");
  result.add("ctrl.rung.full_solve.ms", rung_full_solve_ms, "ms");
  result.add("ctrl.rung.class_repair.ms", rung_class_repair_ms, "ms");
  result.add("ctrl.escalations", escalations, "count");
  result.add("ctrl.full_solves", full_solves, "count");
  result.add("core.solver_self_ms", solver_self_ms, "ms");
  result.add("core.best_response_calls", best_response_calls, "count");
  result.add("core.gs_sweeps", gs_sweeps, "count");
  result.add("core.users_evaluated", users_evaluated, "count");
  result.add("core.jacobian_cells", jacobian_cells, "count");
  result.add("eval.congestion.calls", count(eval.congestion.calls), "count");
  result.add("eval.congestion.ms", eval.congestion.ms(), "ms");
  result.add("eval.congestion_of.calls", count(eval.congestion_of), "count");
  result.add("eval.derivative.calls", count(eval.derivative.calls), "count");
  result.add("eval.derivative.ms", eval.derivative.ms(), "ms");
  result.add("eval.per_entry.calls", count(eval.per_entry.calls), "count");
  result.add("eval.per_entry.ms", eval.per_entry.ms(), "ms");
  result.add("eval.scan_prepare.calls", count(eval.scan_prepare.calls),
             "count");
  result.add("eval.scan_prepare.ms", eval.scan_prepare.ms(), "ms");
  result.add("eval.scan_probe.calls", count(eval.scan_probes), "count");
  result.add("eval.classed.calls", count(eval.classed.calls), "count");
  result.add("eval.classed.ms", eval.classed.ms(), "ms");
  result.add("utility.calls", count(eval.utility_calls), "count");
  result.add("sim.events", sim_events, "count");
  result.add("sim.kernel_ns_per_event", sim_kernel_ns_per_event, "ns");
  result.add("sim.fifo.ns_per_event", sim_fifo_ns_per_event, "ns");
  result.add("sim.fs_oracle.ns_per_event", sim_fs_oracle_ns_per_event, "ns");
  result.add("sim.drr.ns_per_event", sim_drr_ns_per_event, "ns");
  result.add("sim.sfq.ns_per_event", sim_sfq_ns_per_event, "ns");
  result.add("trace.overhead_pct", overhead_pct, "%");
  result.add("trace.attributed_pct", attributed_pct, "%");
}

}  // namespace perfbench::trace
