#include "src/checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/pim/partitioner.h"
#include "src/thermal/power.h"

namespace perfbench {

namespace fs = floretsim;

namespace {

template <typename T>
void expect_eq(Failures& f, const char* what, const T& got, const T& want) {
    if (got == want) return;
    std::ostringstream os;
    os.precision(17);
    os << what << ": got " << got << ", want " << want;
    f.push_back(os.str());
}

void expect(Failures& f, bool ok, const std::string& what) {
    if (!ok) f.push_back(what);
}

}  // namespace

Failures check_sweep_row(const fs::core::SweepRow& row) {
    Failures f;
    const auto& r = row.result;
    expect(f, r.all_completed, "row did not complete (cycle cap or unmappable task)");
    expect_eq(f, "noi_evals + round_epoch_hits", r.noi_evals + r.round_epoch_hits,
              r.rounds);
    return f;
}

Failures dynamic_semantics_differ(const fs::core::experiment::DynamicResult& got,
                                  const fs::core::experiment::DynamicResult& want) {
    Failures f;
    expect_eq(f, "total_cycles", got.total_cycles, want.total_cycles);
    expect_eq(f, "total_energy_pj", got.total_energy_pj, want.total_energy_pj);
    expect_eq(f, "flit_hops", got.flit_hops, want.flit_hops);
    expect_eq(f, "rounds", got.rounds, want.rounds);
    expect_eq(f, "task_rounds", got.task_rounds, want.task_rounds);
    expect_eq(f, "all_completed", got.all_completed, want.all_completed);
    expect_eq(f, "noi_evals", got.noi_evals, want.noi_evals);
    expect_eq(f, "round_epoch_hits", got.round_epoch_hits, want.round_epoch_hits);
    return f;
}

Failures check_direct_sim(const fs::noc::SimResult& sim,
                          std::span<const fs::noc::Demand> demands,
                          const fs::noc::RouteTable& routes,
                          const fs::noc::SimConfig& cfg) {
    std::int64_t flits = 0, packets = 0, flit_hops = 0;
    for (const auto& d : demands) {
        if (d.src == d.dst || d.bytes <= 0) continue;
        const std::int64_t n =
            std::max<std::int64_t>(1, (d.bytes + cfg.flit_bytes - 1) / cfg.flit_bytes);
        flits += n;
        packets += (n + cfg.max_packet_flits - 1) / cfg.max_packet_flits;
        flit_hops += n * routes.hops(d.src, d.dst);
    }
    Failures f;
    expect(f, sim.completed, "direct simulation did not drain");
    expect_eq(f, "sim flits", sim.flits, flits);
    expect_eq(f, "sim packets", sim.packets, packets);
    expect_eq(f, "sim flit_hops", sim.flit_hops, flit_hops);
    return f;
}

Failures check_cluster(const fs::serve::ClusterStats& c, std::int64_t max_requests,
                       std::int32_t max_batch) {
    Failures f;
    const auto& s = c.serve;
    expect_eq(f, "arrived", s.arrived, max_requests);
    expect_eq(f, "completed + rejected", s.completed + s.rejected, s.arrived);
    expect_eq(f, "completed + preemptions", s.completed + s.preemptions, s.admitted);
    std::int64_t arrivals = 0, completions = 0;
    for (const auto a : c.fabric_arrivals) arrivals += a;
    for (const auto d : c.fabric_completed) completions += d;
    expect_eq(f, "sum of fabric arrivals", arrivals, s.arrived);
    expect_eq(f, "sum of fabric completions", completions, s.completed);
    expect(f, s.drained, "cluster did not drain");
    if (max_batch == 1) expect_eq(f, "batched_requests at cap 1", s.batched_requests,
                                  std::int64_t{0});
    expect(f, s.noi_cache_hits <= s.noi_rounds, "noi_cache_hits > noi_rounds");
    return f;
}

Failures cluster_semantics_differ(const fs::serve::ClusterStats& got,
                                  const fs::serve::ClusterStats& want) {
    Failures f;
    const auto& a = got.serve;
    const auto& b = want.serve;
    expect_eq(f, "arrived", a.arrived, b.arrived);
    expect_eq(f, "admitted", a.admitted, b.admitted);
    expect_eq(f, "completed", a.completed, b.completed);
    expect_eq(f, "rejected", a.rejected, b.rejected);
    expect_eq(f, "sla_violations", a.sla_violations, b.sla_violations);
    expect_eq(f, "makespan_cycles", a.makespan_cycles, b.makespan_cycles);
    expect_eq(f, "throughput_per_mcycle", a.throughput_per_mcycle,
              b.throughput_per_mcycle);
    expect_eq(f, "mean_utilization", a.mean_utilization, b.mean_utilization);
    expect_eq(f, "mean_queue_depth", a.mean_queue_depth, b.mean_queue_depth);
    expect_eq(f, "peak_queue_depth", a.peak_queue_depth, b.peak_queue_depth);
    expect_eq(f, "mean_wait_cycles", a.mean_wait_cycles, b.mean_wait_cycles);
    expect_eq(f, "mean_latency_cycles", a.mean_latency_cycles, b.mean_latency_cycles);
    expect_eq(f, "p50_latency_cycles", a.p50_latency_cycles, b.p50_latency_cycles);
    expect_eq(f, "p95_latency_cycles", a.p95_latency_cycles, b.p95_latency_cycles);
    expect_eq(f, "p99_latency_cycles", a.p99_latency_cycles, b.p99_latency_cycles);
    expect_eq(f, "noi_rounds", a.noi_rounds, b.noi_rounds);
    expect_eq(f, "noi_cache_hits", a.noi_cache_hits, b.noi_cache_hits);
    expect_eq(f, "batched_requests", a.batched_requests, b.batched_requests);
    expect_eq(f, "preemptions", a.preemptions, b.preemptions);
    expect_eq(f, "evictions", a.evictions, b.evictions);
    expect_eq(f, "drained", a.drained, b.drained);
    expect(f, got.fabric_arrivals == want.fabric_arrivals, "fabric_arrivals differ");
    expect(f, got.fabric_completed == want.fabric_completed, "fabric_completed differ");
    expect_eq(f, "affinity_hits", got.affinity_hits, want.affinity_hits);
    expect_eq(f, "per_class size", a.per_class.size(), b.per_class.size());
    for (std::size_t i = 0; i < std::min(a.per_class.size(), b.per_class.size()); ++i) {
        const auto& x = a.per_class[i];
        const auto& y = b.per_class[i];
        expect(f,
               x.name == y.name && x.arrived == y.arrived && x.completed == y.completed &&
                   x.violations == y.violations,
               "per_class[" + std::to_string(i) + "] differs");
    }
    return f;
}

Failures check_placement(const fs::core::MooResult& r, const PlacementInputs& in) {
    Failures f;
    const auto cells = in.tcfg.cells();
    std::vector<fs::topo::NodeId> sorted = r.pe_order;
    std::sort(sorted.begin(), sorted.end());
    bool perm = sorted.size() == static_cast<std::size_t>(cells);
    for (std::size_t i = 0; perm && i < sorted.size(); ++i)
        perm = sorted[i] == static_cast<fs::topo::NodeId>(i);
    expect(f, perm, "pe_order is not a permutation of the " + std::to_string(cells) +
                        " PEs");
    if (!perm) return f;

    const auto eval = [&](std::span<const fs::topo::NodeId> order) {
        return fs::core::evaluate_placement(*in.net, *in.plan, order, *in.routes, in.tcfg,
                                            in.pcfg, in.rcfg, in.acc, in.perf);
    };
    const auto again = eval(r.pe_order);
    expect_eq(f, "eval.comm_cycles", r.eval.comm_cycles, again.comm_cycles);
    expect_eq(f, "eval.compute_ns", r.eval.compute_ns, again.compute_ns);
    expect_eq(f, "eval.latency_ns", r.eval.latency_ns, again.latency_ns);
    expect_eq(f, "eval.energy_pj", r.eval.energy_pj, again.energy_pj);
    expect_eq(f, "eval.edp", r.eval.edp, again.edp);
    expect_eq(f, "eval.peak_k", r.eval.peak_k, again.peak_k);
    expect_eq(f, "eval.accuracy_drop", r.eval.accuracy_drop, again.accuracy_drop);

    // The annealer's scalarized objective, normalized to its own start.
    const auto start = eval(fs::core::sfc3d_order(in.tcfg.width, in.tcfg.height,
                                                  in.tcfg.depth));
    const double edp_norm = std::max(1e-30, start.edp);
    const auto objective = [&](const fs::core::PlacementEval& ev) {
        return in.moo.w_perf * ev.edp / edp_norm +
               in.moo.w_thermal * std::max(0.0, ev.peak_k - in.moo.t_target_k);
    };
    expect(f, objective(again) <= objective(start),
           "result scores worse than the sfc3d_order start");

    const auto layer_nodes = fs::pim::assign_layers(*in.net, *in.plan, r.pe_order);
    const auto power = fs::thermal::pe_power_map(*in.net, layer_nodes, cells, in.pcfg);
    const auto thermal = fs::thermal::solve_steady_state(in.tcfg, power);
    for (auto& msg : check_thermal_balance(thermal, power)) f.push_back(std::move(msg));
    return f;
}

Failures check_thermal_balance(const fs::thermal::ThermalResult& t,
                               std::span<const double> power_w) {
    Failures f;
    const auto& c = t.config;
    expect(f, t.converged, "thermal solve did not converge");
    if (t.temp_k.size() != static_cast<std::size_t>(c.cells()) ||
        power_w.size() != t.temp_k.size()) {
        f.push_back("thermal result size mismatch");
        return f;
    }
    double injected = 0.0, sunk = 0.0, g_total = 0.0;
    for (const double p : power_w) injected += p;
    for (std::int32_t z = 0; z < c.depth; ++z)
        for (std::int32_t y = 0; y < c.height; ++y)
            for (std::int32_t x = 0; x < c.width; ++x) {
                double g = c.g_lateral_w_per_k *
                           ((x > 0) + (x + 1 < c.width) + (y > 0) + (y + 1 < c.height));
                g += c.g_vertical_w_per_k * ((z > 0) + (z + 1 < c.depth));
                if (z == c.depth - 1) {
                    g += c.g_sink_w_per_k;
                    sunk += c.g_sink_w_per_k *
                            (t.temp_k[static_cast<std::size_t>(c.index(x, y, z))] -
                             c.t_ambient_k);
                }
                g_total += g;
            }
    // SOR stops once no cell moved by tolerance_k in a sweep. A cell's
    // residual is then g_i * |T_gs - T_i| with |T_gs - T_i| below
    // tolerance * (|1 - omega| / omega + 1); residuals of the internal
    // couplings cancel in the sum, leaving injected - sunk.
    const double allowed = g_total * c.tolerance_k *
                           (std::abs(1.0 - c.sor_omega) / c.sor_omega + 1.0);
    if (!(std::abs(injected - sunk) <= allowed)) {
        std::ostringstream os;
        os.precision(10);
        os << "thermal balance: injected " << injected << " W, sunk " << sunk
           << " W, allowed difference " << allowed << " W";
        f.push_back(os.str());
    }
    return f;
}

}  // namespace perfbench
