#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench::oracle {

namespace {

/// g'(x) for g(x) = x + x^2 (1 + scv) / (2 (1 - x)).
double g_prime(double x, double scv) {
  const double d = 1.0 - x;
  return 1.0 + 0.5 * (1.0 + scv) * (2.0 * x - x * x) / (d * d);
}

/// The serial load at which g'(S) = 1/gamma.
double serial_load(double gamma, double scv) {
  if (scv == 1.0) return 1.0 - std::sqrt(gamma);
  double lo = 0.0;
  double hi = 1.0;
  for (int it = 0; it < 200 && hi - lo > 0.0; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    (g_prime(mid, scv) < 1.0 / gamma ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::size_t total_users(const std::vector<UserClass>& classes) {
  std::size_t n = 0;
  for (const auto& c : classes) n += c.count;
  return n;
}

/// Class indices ordered by gamma (descending when `descending`), ties by
/// index.
std::vector<std::size_t> order_by_gamma(const std::vector<UserClass>& classes,
                                        bool descending) {
  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return descending ? classes[a].gamma > classes[b].gamma
                                       : classes[a].gamma < classes[b].gamma;
                   });
  return order;
}

}  // namespace

std::vector<UserClass> singletons(const std::vector<double>& gammas) {
  std::vector<UserClass> classes;
  classes.reserve(gammas.size());
  for (const double gamma : gammas) classes.push_back({gamma, 1});
  return classes;
}

double g(double x, double scv) {
  if (x >= 1.0) return INFINITY;
  return x + x * x * (1.0 + scv) / (2.0 * (1.0 - x));
}

std::vector<double> serial_rates(const std::vector<UserClass>& classes,
                                 double scv, double floor) {
  const double n = static_cast<double>(total_users(classes));
  std::vector<double> rates(classes.size(), 0.0);
  double before = 0.0;  // sum of the rates of users ordered earlier
  double placed = 0.0;  // users ordered earlier
  for (const std::size_t a : order_by_gamma(classes, /*descending=*/true)) {
    const double load = serial_load(classes[a].gamma, scv);
    const double rate = std::max(floor, (load - before) / (n - placed));
    rates[a] = rate;
    before += static_cast<double>(classes[a].count) * rate;
    placed += static_cast<double>(classes[a].count);
  }
  return rates;
}

std::vector<double> fifo_rates(const std::vector<UserClass>& classes,
                               const std::vector<double>& floors) {
  const auto order = order_by_gamma(classes, /*descending=*/false);
  // Load of the users ordered after position m, all pinned at their floors.
  std::vector<double> floor_load(order.size() + 1, 0.0);
  for (std::size_t m = order.size(); m-- > 0;) {
    floor_load[m] = floor_load[m + 1] +
                    static_cast<double>(classes[order[m]].count) *
                        floors[order[m]];
  }
  double inv_gamma = 0.0;  // sum over the active set of count / gamma
  double active = 0.0;     // users in the active set
  for (std::size_t m = 0; m < order.size(); ++m) {
    const UserClass& newest = classes[order[m]];
    inv_gamma += static_cast<double>(newest.count) / newest.gamma;
    active += static_cast<double>(newest.count);
    const double slack = 1.0 - floor_load[m + 1];
    const double s = ((active - 1.0) +
                      std::sqrt((active - 1.0) * (active - 1.0) +
                                4.0 * inv_gamma * slack)) /
                     (2.0 * inv_gamma);
    // Interior rates must clear the floor; the next class must prefer its
    // floor (dU/dr <= 0 there).
    if (s * s / newest.gamma - s <= floors[order[m]]) continue;
    if (m + 1 < order.size()) {
      const std::size_t next = order[m + 1];
      const double f = floors[next];
      if (1.0 - classes[next].gamma * (1.0 / s + f / (s * s)) > 0.0) continue;
    }
    std::vector<double> rates = floors;
    for (std::size_t j = 0; j <= m; ++j) {
      rates[order[j]] = s * s / classes[order[j]].gamma - s;
    }
    return rates;
  }
  throw std::runtime_error("fifo_rates: no consistent active set");
}

std::vector<double> fair_share_queues(const std::vector<double>& rates) {
  const std::size_t n = rates.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rates[a] < rates[b];
                   });
  std::vector<double> queues(n, 0.0);
  double before = 0.0;
  double g_prev = 0.0;
  double c = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double r = rates[order[k]];
    const double remaining = static_cast<double>(n - k);
    const double load = remaining * r + before;
    const double g_load = g(load, 1.0);
    c += (g_load - g_prev) / remaining;
    queues[order[k]] = c;
    g_prev = g_load;
    before += r;
  }
  return queues;
}

double kkt_violation(const gw::core::AllocationFunction& alloc,
                     const std::vector<double>& gammas,
                     const std::vector<double>& rates, double floor) {
  double worst = 0.0;
  std::vector<double> probe = rates;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    // Classed games tie whole classes, where C_i's second derivative jumps
    // and the central difference is only O(h) accurate: keep h small.
    const double h = std::min(1e-8, 0.5 * rates[i]);
    probe[i] = rates[i] + h;
    const double up = alloc.congestion_of(i, probe);
    probe[i] = rates[i] - h;
    const double down = alloc.congestion_of(i, probe);
    probe[i] = rates[i];
    const double marginal = 1.0 - gammas[i] * (up - down) / (2.0 * h);
    const bool at_floor = rates[i] <= floor * (1.0 + 1e-12);
    const double violation =
        at_floor ? std::max(0.0, marginal) : std::abs(marginal);
    if (!std::isfinite(violation)) return INFINITY;
    worst = std::max(worst, violation);
  }
  return worst;
}

std::vector<double> expand(const std::vector<UserClass>& classes,
                           const std::vector<double>& per_class) {
  std::vector<double> out;
  out.reserve(total_users(classes));
  for (std::size_t a = 0; a < classes.size(); ++a) {
    out.insert(out.end(), classes[a].count, per_class[a]);
  }
  return out;
}

}  // namespace perfbench::oracle
