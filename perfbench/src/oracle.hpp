// Closed-form Nash equilibria for linear utilities U = r - gamma c, coded
// apart from the library's solvers, plus the self-check that ties them to
// the program only through the public congestion_of.
//
// Serial disciplines (Fair Share is serial over M/M/1): order users by
// gamma descending. The k-th user's first-order condition reads
// g'(S_k) = 1/gamma_k on its serial load S_k, so
//   S_k = g'^{-1}(1/gamma_k)   (M/M/1: S_k = 1 - sqrt(gamma_k)),
//   r_k = (S_k - sum_{j<k} r_j) / (N - k + 1).
// FIFO (proportional): with s = 1 - R and active set A = {i : gamma_i < s},
//   s^2 sum_A 1/gamma_i - (|A| - 1) s - (1 - F) = 0,
//   r_i = s^2/gamma_i - s on A, and each inactive user at its rate floor
//   f_i, F = sum of those floors.
// Classed forms weight every sum by the class counts; an expanded game is
// the all-counts-one case.
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocation.hpp"

namespace perfbench::oracle {

/// A class of `count` users sharing delay-aversion `gamma` (U = r - gamma c).
struct UserClass {
  double gamma = 0.5;
  std::size_t count = 1;
};

/// Unit-count classes for an expanded profile.
[[nodiscard]] std::vector<UserClass> singletons(
    const std::vector<double>& gammas);

/// The P-K mean-queue curve g(x) = x + x^2 (1 + scv) / (2 (1 - x)); scv = 1
/// is M/M/1's x / (1 - x).
[[nodiscard]] double g(double x, double scv);

/// Per-class equilibrium rate of the serial discipline over g(., scv). A
/// class whose recursion falls below `floor` sits at the floor.
[[nodiscard]] std::vector<double> serial_rates(
    const std::vector<UserClass>& classes, double scv, double floor);

/// Per-class equilibrium rate under FIFO; inactive class a sits at its own
/// floor `floors[a]` (solvers differ in where they pin inactive users).
[[nodiscard]] std::vector<double> fifo_rates(
    const std::vector<UserClass>& classes, const std::vector<double>& floors);

/// Fair Share mean queues C^FS_k = sum_{m<=k} [g(S_m) - g(S_{m-1})] /
/// (N - m + 1) over M/M/1 for the given rates (the paper's sum formula).
[[nodiscard]] std::vector<double> fair_share_queues(
    const std::vector<double>& rates);

/// Largest violation of the KKT sign conditions of `rates` for linear
/// utilities `gammas` under `alloc`, with dC_i/dr_i taken by central
/// differences of the public congestion_of: |1 - gamma_i dC_i/dr_i| for an
/// interior user, max(0, 1 - gamma_i dC_i/dr_i) for a user at `floor`.
[[nodiscard]] double kkt_violation(const gw::core::AllocationFunction& alloc,
                                   const std::vector<double>& gammas,
                                   const std::vector<double>& rates,
                                   double floor);

/// Expands per-class values into per-user values (class 0's members first).
[[nodiscard]] std::vector<double> expand(const std::vector<UserClass>& classes,
                                         const std::vector<double>& per_class);

}  // namespace perfbench::oracle
