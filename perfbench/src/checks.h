#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/moo.h"
#include "src/core/sweep.h"
#include "src/noc/simulator.h"
#include "src/serve/cluster.h"
#include "src/thermal/grid_solver.h"

namespace perfbench {

/// Output checks. Each returns the list of violated properties (empty
/// when the output passes). They compare against a computation made
/// apart from the code under test, or against a property the method
/// must have — never against stored output.
using Failures = std::vector<std::string>;

/// Every Table II row must drain, and every round is either a fresh NoI
/// evaluation or a residency-epoch hit.
[[nodiscard]] Failures check_sweep_row(const floretsim::core::SweepRow& row);

/// Semantic DynamicResult fields (everything except the simulator-engine
/// work statistics, which legitimately differ between cores).
[[nodiscard]] Failures dynamic_semantics_differ(
    const floretsim::core::experiment::DynamicResult& got,
    const floretsim::core::experiment::DynamicResult& want);

/// A direct simulation of `demands` must move exactly the flits, packets
/// and flit-hops the packetization rule implies: per demand
/// max(1, ceil(bytes / flit_bytes)) flits in ceil(flits / max_packet_flits)
/// packets, each flit crossing RouteTable::hops(src, dst) links.
[[nodiscard]] Failures check_direct_sim(const floretsim::noc::SimResult& sim,
                                        std::span<const floretsim::noc::Demand> demands,
                                        const floretsim::noc::RouteTable& routes,
                                        const floretsim::noc::SimConfig& cfg);

/// Request conservation of one serve_cluster call.
[[nodiscard]] Failures check_cluster(const floretsim::serve::ClusterStats& s,
                                     std::int64_t max_requests, std::int32_t max_batch);

/// Semantic ClusterStats fields (engine work statistics excluded).
[[nodiscard]] Failures cluster_semantics_differ(const floretsim::serve::ClusterStats& got,
                                                const floretsim::serve::ClusterStats& want);

/// Everything one annealer call was given.
struct PlacementInputs {
    const floretsim::dnn::Network* net = nullptr;
    const floretsim::pim::PartitionPlan* plan = nullptr;
    const floretsim::noc::RouteTable* routes = nullptr;
    floretsim::thermal::ThermalConfig tcfg;
    floretsim::thermal::PowerParams pcfg;
    floretsim::pim::ReramConfig rcfg;
    floretsim::pim::ThermalAccuracyModel acc;
    floretsim::core::PerfParams perf;
    /// The optimizer's own config (w_thermal already zeroed for the
    /// performance-only variant).
    floretsim::core::MooConfig moo;
};

/// The result's pe_order is a permutation of every PE, evaluate_placement
/// on it reproduces the returned eval exactly, it scores no worse than
/// the sfc3d_order start under the optimizer's objective, and its thermal
/// solve converges and balances.
[[nodiscard]] Failures check_placement(const floretsim::core::MooResult& r,
                                       const PlacementInputs& in);

/// Energy balance of a steady-state solve: the injected power equals the
/// heat leaving through the sink, sum over top-tier cells of
/// g_sink * (T - T_ambient), within what the SOR stopping rule allows.
[[nodiscard]] Failures check_thermal_balance(const floretsim::thermal::ThermalResult& t,
                                             std::span<const double> power_w);

}  // namespace perfbench
