// Self-tests of the benchmark: the speed-correction arithmetic, the span
// self-time rollup, and that every output check rejects a deliberately
// corrupted copy of a real result. Exits non-zero on any failure.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <variant>

#include "src/checks.h"
#include "src/core/experiment.h"
#include "src/dnn/model_zoo.h"
#include "src/pim/partitioner.h"
#include "src/refkernel.h"
#include "src/scenario/registry.h"
#include "src/spans.h"
#include "src/thermal/power.h"
#include "src/topo/mesh.h"
#include "src/workload/tables.h"

namespace {

namespace fs = floretsim;
namespace ex = floretsim::core::experiment;
using perfbench::Failures;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++g_failures;
    std::cerr << "FAIL: " << what << '\n';
}

void expect_rejects(const Failures& f, const std::string& what) {
    expect(!f.empty(), what + " was not rejected");
}

void expect_passes(const Failures& f, const std::string& what) {
    for (const auto& m : f) std::cerr << "  " << what << ": " << m << '\n';
    expect(f.empty(), what + " rejected a real result");
}

void test_correction() {
    const double n = perfbench::kNominalKernelSeconds;
    expect(perfbench::corrected_seconds(1.5, n, n) == 1.5, "nominal host leaves time as is");
    expect(std::abs(perfbench::corrected_seconds(2.0, 2 * n, 2 * n) - 1.0) < 1e-12,
           "a host at half speed halves the time");
    expect(std::abs(perfbench::corrected_seconds(1.0, n, 3 * n) - 0.5) < 1e-12,
           "before and after kernels are averaged");
    bool threw = false;
    try {
        (void)perfbench::corrected_seconds(1.0, 0.0, 0.0);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "a zero kernel time is refused");
    expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
    expect(perfbench::run_reference_kernel() > 0.0, "kernel takes time");
}

void test_rollup() {
    using perfbench::SpanRec;
    // Overlapping children are counted once; a grandchild does not reach
    // its grandparent.
    std::vector<SpanRec> s(4);
    s[0] = {"parent", "t", 0, 100, -1, true, 1.0};
    s[1] = {"a", "t", 10, 30, 0, true, 1.0};
    s[2] = {"b", "t", 20, 50, 0, true, 1.0};
    s[3] = {"c", "t", 21, 29, 1, true, 1.0};
    const auto self = perfbench::self_times_ns(s);
    expect(self[0] == 60, "parent self = 100 - |[10,50]|");
    expect(self[1] == 12, "a self = 20 - 8");
    expect(self[2] == 30 && self[3] == 8, "leaf self = duration");

    // Library spans (microsecond timestamps, no parent) nest by
    // containment; one that starts just before the op still lands in it.
    std::vector<SpanRec> t(5);
    t[0] = {"pass", "t", 0, 100'000, -1, true, 1.0};
    t[1] = {"op", "t", 10'000, 50'000, 0, true, 2.0};
    t[2] = {"sweep_point", "lib", 9'200, 49'000, -1, false, 2.0};
    t[3] = {"evaluate_noi", "lib", 12'000, 20'000, -1, false, 2.0};
    t[4] = {"evaluate_noi", "lib", 22'000, 30'000, -1, false, 2.0};
    perfbench::attach_by_containment(t, 1000);
    expect(t[1].parent == 0, "own parents are kept");
    expect(t[2].parent == 1, "library span nests in the op");
    expect(t[3].parent == 2 && t[4].parent == 2, "inner library spans nest");
    const auto r = perfbench::rollup(t);
    expect(r.at("evaluate_noi").calls == 2, "calls counted per name");
    expect(std::abs(r.at("evaluate_noi").total_s - 2 * 16'000e-9) < 1e-15,
           "totals scale by the span speed");
    expect(std::abs(r.at("op").self_s - 2 * 1'000e-9) < 1e-15,
           "op self time = op minus the clipped library span");
    expect(std::abs(r.at("sweep_point").self_s - 2 * 23'800e-9) < 1e-15,
           "library self time = span minus its children");
    const auto doc = perfbench::chrome_trace(t);
    expect(doc.find("traceEvents")->as_array().size() == 5, "one trace event per span");
}

void test_sweep_checks() {
    auto spec = fs::scenario::Registry::builtin().at("table2").spec;
    (void)fs::scenario::apply_override(spec, "traffic_scale", "1/1024");
    const auto points = *fs::scenario::cacheable_points(spec);
    ex::ArchCache cache;
    const auto row = fs::core::evaluate_point(cache, points.front());
    expect_passes(perfbench::check_sweep_row(row), "sweep row");
    expect_passes(perfbench::dynamic_semantics_differ(row.result, row.result), "same row");

    auto bad = row;
    bad.result.all_completed = false;
    expect_rejects(perfbench::check_sweep_row(bad), "incomplete row");
    bad = row;
    bad.result.round_epoch_hits += 1;
    expect_rejects(perfbench::check_sweep_row(bad), "round accounting off by one");
    bad = row;
    bad.result.total_cycles += 1.0;
    expect_rejects(perfbench::dynamic_semantics_differ(bad.result, row.result),
                   "changed makespan");
    bad = row;
    bad.result.flit_hops -= 1;
    expect_rejects(perfbench::dynamic_semantics_differ(bad.result, row.result),
                   "changed flit_hops");

    // A direct simulation against the packetization arithmetic.
    const auto fabric = cache.get(ex::Arch::kFloret, 10, 10);
    const std::vector<fs::noc::Demand> demands{{0, 55, 1000}, {3, 97, 7}, {12, 12, 64},
                                               {40, 2, 129}};
    fs::noc::SimConfig cfg;
    fs::noc::Simulator sim(fabric->topology, fabric->routes, cfg);
    sim.add_demands(demands);
    const auto res = sim.run();
    expect_passes(perfbench::check_direct_sim(res, demands, fabric->routes, cfg),
                  "direct sim");
    for (int field = 0; field < 3; ++field) {
        auto b = res;
        (field == 0 ? b.flits : field == 1 ? b.packets : b.flit_hops) += 1;
        expect_rejects(perfbench::check_direct_sim(b, demands, fabric->routes, cfg),
                       "direct sim with a corrupted count " + std::to_string(field));
    }
}

void test_cluster_checks() {
    auto spec = std::get<fs::scenario::ClusterSpec>(
        fs::scenario::Registry::builtin().at("cluster").spec);
    ex::ArchCache cache;
    std::vector<ex::BuiltArch> fabrics;
    for (int f = 0; f < 2; ++f)
        fabrics.push_back(ex::build_arch(cache, spec.base.arch, spec.base.width,
                                         spec.base.height, spec.base.swap_seed,
                                         spec.base.greedy_max_gap));
    auto cfg = spec.base.config;
    cfg.arrivals.max_requests = 16;
    cfg.arrivals.rate_per_mcycle = 4000.0;
    cfg.max_batch = 4;
    const auto s = fs::serve::serve_cluster(fabrics, cfg, spec.balance);
    expect_passes(perfbench::check_cluster(s, 16, 4), "cluster stats");
    expect_passes(perfbench::cluster_semantics_differ(s, s), "same cluster stats");

    auto b = s;
    b.serve.completed -= 1;
    expect_rejects(perfbench::check_cluster(b, 16, 4), "lost completion");
    b = s;
    b.fabric_arrivals.front() += 1;
    expect_rejects(perfbench::check_cluster(b, 16, 4), "fabric arrivals off by one");
    b = s;
    b.serve.drained = false;
    expect_rejects(perfbench::check_cluster(b, 16, 4), "undrained cluster");
    b = s;
    b.serve.noi_cache_hits = b.serve.noi_rounds + 1;
    expect_rejects(perfbench::check_cluster(b, 16, 4), "more hits than rounds");
    b = s;
    b.serve.batched_requests = 2;
    expect_rejects(perfbench::check_cluster(b, 16, 1), "batching at cap 1");
    expect_rejects(perfbench::check_cluster(s, 17, 4), "wrong arrival count");
    b = s;
    b.serve.p99_latency_cycles *= 1.001;
    expect_rejects(perfbench::cluster_semantics_differ(b, s), "changed p99");
}

void test_placement_checks() {
    const auto& w = fs::workload::workload_by_id("DNN1");
    const auto net = fs::dnn::build_model(w.model, w.dataset);
    const auto plan = fs::pim::partition_by_params(net, w.paper_params_m,
                                                   w.paper_params_m / 88.0);
    const auto topo = fs::topo::make_mesh3d(5, 5, 4);
    const auto routes = fs::noc::RouteTable::build(topo, fs::noc::RoutingPolicy::kShortestPath);
    perfbench::PlacementInputs in;
    in.net = &net;
    in.plan = &plan;
    in.routes = &routes;
    in.pcfg.inference_period_ns = fs::pim::pipeline_period_ns(net, plan, in.rcfg);
    in.moo.iterations = 40;
    in.moo.t_target_k = 331.0;
    const auto r = fs::core::optimize_joint(net, plan, routes, in.tcfg, in.pcfg, in.rcfg,
                                            in.acc, in.perf, in.moo);
    expect_passes(perfbench::check_placement(r, in), "placement");

    auto b = r;
    b.pe_order[1] = b.pe_order[0];
    expect_rejects(perfbench::check_placement(b, in), "pe_order with a duplicate PE");
    b = r;
    std::swap(b.pe_order[0], b.pe_order[99]);
    expect_rejects(perfbench::check_placement(b, in), "swapped pe_order vs its eval");
    b = r;
    b.eval.edp *= 1.0 + 1e-12;
    expect_rejects(perfbench::check_placement(b, in), "perturbed eval");
    // A scrambled placement has a worse EDP than the SFC start, which the
    // performance-only objective must reject.
    auto perf_only = in;
    perf_only.moo.w_thermal = 0.0;
    b = r;
    std::reverse(b.pe_order.begin() + 7, b.pe_order.begin() + 93);
    std::swap(b.pe_order[3], b.pe_order[61]);
    b.eval = fs::core::evaluate_placement(net, plan, b.pe_order, routes, in.tcfg, in.pcfg,
                                          in.rcfg, in.acc, in.perf);
    expect_rejects(perfbench::check_placement(b, perf_only), "placement worse than its start");

    const auto layer_nodes = fs::pim::assign_layers(net, plan, r.pe_order);
    const auto power = fs::thermal::pe_power_map(net, layer_nodes, in.tcfg.cells(), in.pcfg);
    const auto t = fs::thermal::solve_steady_state(in.tcfg, power);
    expect_passes(perfbench::check_thermal_balance(t, power), "thermal balance");
    auto tb = t;
    tb.temp_k.back() += 1e-3;
    expect_rejects(perfbench::check_thermal_balance(tb, power), "hotter sink tier");
    tb = t;
    tb.converged = false;
    expect_rejects(perfbench::check_thermal_balance(tb, power), "unconverged solve");
}

}  // namespace

int main() {
    const std::pair<const char*, void (*)()> tests[] = {
        {"correction", test_correction},
        {"rollup", test_rollup},
        {"sweep_checks", test_sweep_checks},
        {"cluster_checks", test_cluster_checks},
        {"placement_checks", test_placement_checks},
    };
    for (const auto& [name, fn] : tests) {
        const int before = g_failures;
        try {
            fn();
        } catch (const std::exception& e) {
            ++g_failures;
            std::cerr << "FAIL: " << name << " threw " << e.what() << '\n';
        }
        std::cout << (g_failures == before ? "ok   " : "FAIL ") << name << '\n';
    }
    return g_failures == 0 ? 0 : 1;
}
