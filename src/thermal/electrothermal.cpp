#include "thermal/electrothermal.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/pool.h"

namespace nbtisim::thermal {

OperatingPoint solve_operating_point(const netlist::Netlist& nl,
                                     const tech::Library& lib,
                                     const RcThermalModel& model,
                                     const std::vector<bool>& standby_vector,
                                     const ElectrothermalParams& params) {
  // Written so that NaN fails: a NaN replication or power would otherwise
  // run the fixpoint into a reported runaway.
  const auto require = [](bool ok, const char* name, double value) {
    if (!ok) {
      throw std::invalid_argument(std::string("solve_operating_point: bad ") +
                                  name + " " + std::to_string(value));
    }
  };
  const auto positive = [](double x) { return x > 0.0 && std::isfinite(x); };
  require(positive(params.replication), "replication", params.replication);
  require(positive(params.supply_v), "supply_v", params.supply_v);
  require(positive(params.tolerance_k), "tolerance_k", params.tolerance_k);
  require(positive(params.runaway_temp_k), "runaway_temp_k",
          params.runaway_temp_k);
  require(std::isfinite(params.dynamic_power_w), "dynamic_power_w",
          params.dynamic_power_w);
  require(params.max_iterations >= 1, "max_iterations",
          params.max_iterations);

  auto leakage_watts = [&](double temp_k) {
    // The table at temp_k comes from the library's memo: iterates (and
    // other solves) at a temperature already met reuse its entries.
    const leakage::LeakageAnalyzer analyzer(nl, lib, temp_k);
    return analyzer.circuit_leakage(standby_vector) * params.supply_v *
           params.replication;
  };

  OperatingPoint op;
  double temp = model.steady_state(params.dynamic_power_w);
  // Damped fixpoint iteration: plain iteration diverges exactly when a
  // runaway is physically present, which is what we want to detect — so
  // use plain iteration with a divergence guard.
  for (int it = 0; it < params.max_iterations; ++it) {
    op.iterations = it + 1;
    const double p_leak = leakage_watts(temp);
    const double next =
        model.steady_state(params.dynamic_power_w + p_leak);
    if (!std::isfinite(next) || next > params.runaway_temp_k) {
      op.temperature_k = next;
      op.leakage_w = p_leak;
      op.converged = false;
      return op;
    }
    if (std::abs(next - temp) < params.tolerance_k) {
      // p_leak was characterized at temp, which agrees with next within
      // tolerance_k — characterizing a table at next would add a final
      // iteration for a sub-tolerance delta.
      op.temperature_k = next;
      op.leakage_w = p_leak;
      op.converged = true;
      return op;
    }
    temp = next;
  }
  op.temperature_k = temp;
  op.leakage_w = leakage_watts(temp);
  op.converged = false;
  return op;
}

std::vector<OperatingPoint> solve_operating_points(
    const netlist::Netlist& nl, const tech::Library& lib,
    const RcThermalModel& model, const std::vector<bool>& standby_vector,
    std::span<const double> dynamic_powers, const ElectrothermalParams& params,
    int n_threads) {
  std::vector<OperatingPoint> points(dynamic_powers.size());
  common::parallel_for(
      static_cast<int>(dynamic_powers.size()), n_threads, [&](int i) {
        ElectrothermalParams cell = params;
        cell.dynamic_power_w = dynamic_powers[i];
        points[i] = solve_operating_point(nl, lib, model, standby_vector, cell);
      });
  return points;
}

}  // namespace nbtisim::thermal
