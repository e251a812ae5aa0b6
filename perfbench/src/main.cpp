// floretsim_perf: the FloretSim benchmark driver. One workload per run,
// closed loop on one thread, every op timed between two runs of the
// reference kernel and speed-corrected. Prints the end-to-end metrics
// (untraced) or the per-layer ledger (--trace 1) as the last stdout line.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/refkernel.h"
#include "src/spans.h"
#include "src/util/json.h"
#include "src/workloads.h"

namespace {

using floretsim::util::Json;
using perfbench::SpanRecorder;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void usage(const std::string& msg) {
    std::cerr << "floretsim_perf: " << msg
              << "\nusage: floretsim_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\nworkloads:";
    for (const auto& n : perfbench::workload_names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") a.workload = v;
            else if (flag == "--seed") a.seed = std::stoull(v);
            else if (flag == "--seconds") a.seconds = std::stod(v);
            else if (flag == "--trace") a.trace = std::stoi(v) != 0;
            else if (flag == "--out-dir") a.out_dir = v;
            else usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
    return a;
}

double now_s() { return 1e-9 * static_cast<double>(SpanRecorder::now_ns()); }

/// Set-up is milliseconds long, so it runs kSetups times, fresh each
/// time, and the median is reported; the last workload built is the one
/// measured. The count is fixed so that the peak RSS does not depend on
/// host speed.
constexpr int kSetups = 9;

struct Setup {
    std::unique_ptr<perfbench::Workload> workload;
    double corrected_s = 0.0;
    double raw_s = 0.0;
};

Setup run_setups(const Args& args, std::vector<double>& kernels) {
    std::vector<double> corrected, raw;
    Setup s;
    for (int k = 0; k < kSetups; ++k) {
        s.workload.reset();
        const double kb = perfbench::run_reference_kernel();
        const double t0 = now_s();
        s.workload = perfbench::make_workload(args.workload, args.seed);
        const double t1 = now_s();
        const double ka = perfbench::run_reference_kernel();
        raw.push_back(t1 - t0);
        corrected.push_back(perfbench::corrected_seconds(t1 - t0, kb, ka));
        kernels.push_back(kb);
        kernels.push_back(ka);
    }
    s.corrected_s = perfbench::median(corrected);
    s.raw_s = perfbench::median(raw);
    return s;
}

/// Per-op timings of every pass, in pass order.
struct Timings {
    std::vector<std::vector<double>> corrected, raw;  ///< [pass][op]
    std::int64_t attempted = 0, failed = 0;

    /// Ops per corrected second: ops per pass over the sum of each op's
    /// median time across passes (robust to a pass hit by a host stall).
    [[nodiscard]] double ops_per_s(bool use_raw) const {
        const auto& t = use_raw ? raw : corrected;
        if (t.empty()) return 0.0;
        double pass_s = 0.0;
        for (std::size_t i = 0; i < t.front().size(); ++i) {
            std::vector<double> v;
            for (const auto& p : t) v.push_back(p[i]);
            pass_s += perfbench::median(v);
        }
        return static_cast<double>(t.front().size()) / pass_s;
    }
};

void report_failures(std::size_t op, const perfbench::Failures& f) {
    for (std::size_t k = 0; k < f.size() && k < 5; ++k)
        std::cerr << "check failed (op " << op << "): " << f[k] << '\n';
}

struct OpRun {
    double raw = 0.0, corrected = 0.0;
    double speed = 1.0;  ///< nominal / measured kernel time around the op
    bool ok = false;     ///< ran without throwing and passed its checks
};

/// One op: kernel, op, kernel, then the untimed checks. With a recorder
/// the op runs traced: an "op" span, and the library's metrics registry
/// and tracer switched on for the op alone.
OpRun timed_op(perfbench::Workload& w, std::size_t i, bool first_pass,
               std::vector<double>& kernels, SpanRecorder* rec) {
    auto& metrics = floretsim::obs::MetricsRegistry::global();
    auto& tracer = floretsim::obs::Tracer::global();
    OpRun r;
    const double kb = perfbench::run_reference_kernel();
    if (rec) {
        metrics.enable();
        tracer.enable();
    }
    const double t0 = now_s();
    try {
        const perfbench::ScopedSpan s(rec, "op", "op");
        w.run_op(i);
        r.ok = true;
    } catch (const std::exception& e) {
        std::cerr << "op " << i << " threw: " << e.what() << '\n';
    }
    const double t1 = now_s();
    metrics.disable();
    tracer.disable();
    const double ka = perfbench::run_reference_kernel();
    kernels.push_back(kb);
    kernels.push_back(ka);
    r.raw = t1 - t0;
    r.corrected = perfbench::corrected_seconds(r.raw, kb, ka);
    r.speed = perfbench::kNominalKernelSeconds / (0.5 * (kb + ka));
    if (r.ok) {
        const auto f = w.check_op(i, first_pass);
        report_failures(i, f);
        r.ok = f.empty();
    }
    return r;
}

/// Runs every op's deep checks after timing; returns how many ops that
/// passed their first-pass checks fail here. Every later pass reproduced
/// the first, so each such op failed in every pass.
std::int64_t run_deep_checks(perfbench::Workload& w, const std::vector<char>& first_ok) {
    std::int64_t failed = 0;
    for (std::size_t i = 0; i < first_ok.size(); ++i) {
        const auto f = w.deep_check(i);
        report_failures(i, f);
        if (!f.empty() && first_ok[i]) ++failed;
    }
    return failed;
}

void emit(bool correct, std::int64_t attempted, std::int64_t failed, const Json& metrics) {
    Json out = Json::object();
    out.set("correct", correct);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", metrics);
    std::cout << floretsim::util::json_serialize_compact(out) << std::endl;
}

void add_metric(Json& m, const std::string& name, double value, const char* unit) {
    Json v = Json::object();
    v.set("value", value);
    v.set("unit", unit);
    m.set(name, std::move(v));
}

Json info_kernels(const std::vector<double>& kernels) {
    Json k = Json::object();
    k.set("nominal_ms", 1e3 * perfbench::kNominalKernelSeconds);
    k.set("median_ms", 1e3 * perfbench::median(kernels));
    k.set("samples", static_cast<std::int64_t>(kernels.size()));
    return k;
}

int run_untraced(const Args& args) {
    std::vector<double> kernels;
    for (int k = 0; k < 5; ++k) (void)perfbench::run_reference_kernel();
    auto setup = run_setups(args, kernels);
    auto& w = *setup.workload;
    const std::size_t n = w.ops_per_pass();

    Timings t;
    std::vector<char> first_ok(n, 0);
    const double start = now_s();
    for (std::size_t pass = 0; pass == 0 || now_s() - start < args.seconds; ++pass) {
        t.corrected.emplace_back();
        t.raw.emplace_back();
        for (std::size_t i = 0; i < n; ++i) {
            const auto r = timed_op(w, i, pass == 0, kernels, nullptr);
            ++t.attempted;
            if (!r.ok) ++t.failed;
            if (pass == 0) first_ok[i] = r.ok;
            t.corrected.back().push_back(r.corrected);
            t.raw.back().push_back(r.raw);
        }
    }

    const double rss_mb = perfbench::peak_rss_mb();
    t.failed += run_deep_checks(w, first_ok) * static_cast<std::int64_t>(t.corrected.size());

    Json info = Json::object();
    info.set("workload", args.workload);
    info.set("seed", args.seed);
    info.set("passes", static_cast<std::int64_t>(t.corrected.size()));
    info.set("ops_per_pass", static_cast<std::int64_t>(n));
    info.set("raw_ops_per_s", t.ops_per_s(true));
    info.set("raw_setup_s", setup.raw_s);
    info.set("kernel", info_kernels(kernels));
    std::cout << "perfbench-info " << floretsim::util::json_serialize_compact(info)
              << '\n';

    Json m = Json::object();
    add_metric(m, "ops_per_s", t.ops_per_s(false), "1/s");
    add_metric(m, "setup_s", setup.corrected_s, "s");
    add_metric(m, "peak_rss_mb", rss_mb, "MB");
    emit(t.failed == 0, t.attempted, t.failed, m);
    return t.failed == 0 ? 0 : 1;
}

double counter(const Json& snapshot, const char* name) {
    const Json* c = snapshot.find("counters");
    const Json* v = c ? c->find(name) : nullptr;
    return v ? v->as_double() : 0.0;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Folds the library's own obs::Tracer spans (recorded during the ops)
/// into the recorder and clears the tracer.
void harvest_library_spans(SpanRecorder& rec) {
    auto& tracer = floretsim::obs::Tracer::global();
    const Json doc = tracer.chrome_trace();
    for (const auto& e : doc.find("traceEvents")->as_array()) {
        const Json* ph = e.find("ph");
        if (!ph || ph->as_string() != "X") continue;
        const auto ts = e.find("ts")->as_int() * 1000;
        rec.add_foreign(e.find("name")->as_string(), e.find("cat")->as_string(), ts,
                        ts + e.find("dur")->as_int() * 1000);
    }
    tracer.reset();
}

int run_traced(const Args& args) {
    std::vector<double> kernels;
    for (int k = 0; k < 5; ++k) (void)perfbench::run_reference_kernel();
    auto setup = run_setups(args, kernels);
    auto& w = *setup.workload;
    const std::size_t n = w.ops_per_pass();
    auto& metrics = floretsim::obs::MetricsRegistry::global();
    auto& tracer = floretsim::obs::Tracer::global();

    // Pass 0 runs untraced: it warms up and runs the first-pass checks.
    // After it, each op runs untraced and then traced, back to back, so
    // the overhead figure compares per-op medians taken at the same host
    // speed.
    std::int64_t attempted = 0, failed = 0;
    std::vector<char> first_ok(n, 0);
    const auto record = [&](Timings* t, const OpRun& r) {
        ++attempted;
        if (!r.ok) ++failed;
        if (t) t->corrected.back().push_back(r.corrected);
    };
    const double start = now_s();
    for (std::size_t i = 0; i < n; ++i) {
        const auto r = timed_op(w, i, true, kernels, nullptr);
        record(nullptr, r);
        first_ok[i] = r.ok;
    }

    metrics.reset();
    tracer.reset();
    SpanRecorder rec;
    perfbench::Ledger ledger;
    Timings untraced, traced;
    do {
        untraced.corrected.emplace_back();
        traced.corrected.emplace_back();
        // Spans recorded since the last traced op take the next one's
        // speed factor.
        std::size_t unscaled = rec.spans().size();
        w.decompose_fabrics(rec);
        for (std::size_t i = 0; i < n; ++i) {
            record(&untraced, timed_op(w, i, false, kernels, nullptr));
            const auto r = timed_op(w, i, false, kernels, &rec);
            record(&traced, r);
            harvest_library_spans(rec);
            if (r.ok) w.decompose(i, rec, ledger);
            rec.set_speed_from(unscaled, r.speed);
            unscaled = rec.spans().size();
        }
    } while (now_s() - start < args.seconds);
    const auto traced_passes = static_cast<std::int64_t>(traced.corrected.size());

    failed += run_deep_checks(w, first_ok) * (1 + 2 * traced_passes);
    const Json snap = metrics.snapshot();
    perfbench::attach_by_containment(rec.spans(), 1000);
    const auto roll = perfbench::rollup(rec.spans());
    const auto total = [&](const char* name) {
        const auto it = roll.find(name);
        return it == roll.end() ? 0.0 : it->second.total_s;
    };
    const auto per_call = [&](const char* name, double scale) {
        const auto it = roll.find(name);
        return it == roll.end() ? 0.0
                                : scale * it->second.total_s /
                                      static_cast<double>(it->second.calls);
    };
    const double ops = static_cast<double>(traced_passes) * static_cast<double>(n);
    const double op_s = total("op");
    const double noi_s = total("evaluate_noi");
    const double serve_arrived = counter(snap, "serve.arrived");
    const double stepped = counter(snap, "sim.cycles_stepped");
    const double skipped = counter(snap, "sim.cycles_skipped");
    const double solve_s = 1e-3 * per_call("thermal.solve_steady_state", 1e3);

    Json m = Json::object();
    add_metric(m, "fabric.build_ms", per_call("fabric.build", 1e3), "ms");
    add_metric(m, "fabric.builds", static_cast<double>(w.fabric_builds()), "count");
    add_metric(m, "mapper.map_us", per_call("mapper.map_queue", 1e6), "us");
    add_metric(m, "mapper.calls",
               (ledger["mapper.calls"] + counter(snap, "serve.admitted")) / ops, "count");
    add_metric(m, "traffic.flows_us", per_call("traffic.pipeline_flows", 1e6), "us");
    add_metric(m, "traffic.demands",
               ratio(ledger["traffic.demands"], ledger["direct_sims"]), "count");
    add_metric(m, "noc.sim_ms", per_call("evaluate_noi", 1e3), "ms");
    add_metric(m, "noc.sims_per_op", counter(snap, "noi.evals") / ops, "count");
    add_metric(m, "noc.flit_hops_per_s", ratio(counter(snap, "sim.phase_alloc_hops"), noi_s),
               "1/s");
    add_metric(m, "noc.cycles_stepped_per_op", stepped / ops, "count");
    add_metric(m, "noc.skip_fraction", ratio(skipped, stepped + skipped), "ratio");
    add_metric(m, "noc.share", ratio(noi_s, op_s), "ratio");
    add_metric(m, "cost.energy_us", per_call("cost.noi_energy_pj", 1e6), "us");
    add_metric(m, "dynamic.rounds_per_op", counter(snap, "mix.rounds") / ops, "count");
    add_metric(m, "dynamic.epoch_hit_ratio",
               ratio(counter(snap, "noi.sims_reused"), counter(snap, "mix.rounds")), "ratio");
    add_metric(m, "sweep.requested_points",
               ledger["sweep.requested_points"] / static_cast<double>(traced_passes), "count");
    add_metric(m, "sweep.evaluated_points",
               counter(snap, "sweep.points") / static_cast<double>(traced_passes), "count");
    add_metric(m, "serve.requests_per_op", serve_arrived / ops, "count");
    add_metric(m, "serve.sims_per_request",
               serve_arrived > 0 ? counter(snap, "noi.evals") / serve_arrived : 0.0, "ratio");
    add_metric(m, "serve.noi_hit_ratio",
               ratio(counter(snap, "serve.noi_cache_hits"), counter(snap, "serve.noi_rounds")),
               "ratio");
    add_metric(m, "serve.des_share", serve_arrived > 0 ? 1.0 - ratio(noi_s, op_s) : 0.0,
               "ratio");
    add_metric(m, "moo.steps_per_s", ratio(ledger["moo.steps"], op_s), "1/s");
    // accepted_moves counts the greedy refinement's accepts too, so this is
    // (annealing + refinement accepts) / annealing iterations.
    add_metric(m, "moo.accept_ratio", ratio(ledger["moo.accepted"], ledger["moo.steps"]),
               "ratio");
    add_metric(m, "moo.eval_placement_ms", per_call("moo.evaluate_placement", 1e3), "ms");
    add_metric(m, "thermal.solve_ms", 1e3 * solve_s, "ms");
    add_metric(m, "thermal.sor_iterations",
               ratio(ledger["thermal.sor_iterations"], ledger["thermal.solves"]), "count");
    add_metric(m, "thermal.share", ratio(ledger["moo.steps"] * solve_s, op_s), "ratio");
    add_metric(m, "pim.setup_ms", per_call("pim.setup", 1e3), "ms");
    const double traced_ops_per_s = traced.ops_per_s(false);
    const double untraced_ops_per_s = untraced.ops_per_s(false);
    add_metric(m, "trace.overhead_pct",
               100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%");

    // The ledger table and the Chrome trace go to files; the table is
    // echoed to stdout too.
    std::ostringstream table;
    table << "per-layer ledger: " << args.workload << " seed " << args.seed << ", "
          << traced_passes << " traced pass(es) of " << n << " ops; traced op time "
          << std::setprecision(6) << op_s << " s (corrected)\n"
          << "tracing overhead: untraced " << untraced_ops_per_s << " ops/s, traced "
          << traced_ops_per_s << " ops/s\n"
          << std::left << std::setw(28) << "span" << std::right << std::setw(8) << "calls"
          << std::setw(14) << "total s" << std::setw(14) << "self s" << std::setw(12)
          << "share" << '\n';
    for (const auto& [name, lt] : roll)
        table << std::left << std::setw(28) << name << std::right << std::setw(8) << lt.calls
              << ' ' << std::setw(13) << lt.total_s << ' ' << std::setw(13) << lt.self_s
              << ' ' << std::setw(11) << ratio(lt.total_s, op_s) << '\n';
    table << "metrics:\n";
    for (const auto& [name, v] : m.as_object())
        table << "  " << std::left << std::setw(28) << name << ' '
              << v.find("value")->as_double() << ' ' << v.find("unit")->as_string()
              << '\n';
    std::filesystem::create_directories(args.out_dir);
    const std::string stem =
        args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
    std::ofstream(stem + ".layers.txt") << table.str();
    std::ofstream(stem + ".trace.json")
        << floretsim::util::json_serialize_compact(perfbench::chrome_trace(rec.spans()));
    std::cout << table.str() << "trace: " << stem << ".trace.json\n";

    Json info = Json::object();
    info.set("workload", args.workload);
    info.set("seed", args.seed);
    info.set("traced_passes", traced_passes);
    info.set("kernel", info_kernels(kernels));
    std::cout << "perfbench-info " << floretsim::util::json_serialize_compact(info)
              << '\n';
    emit(failed == 0, attempted, failed, m);
    return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    // The benchmark chooses its simulator cores itself; a process-wide
    // override from the environment would silently change what is timed.
    unsetenv("FLORETSIM_SIM_CORE");
    try {
        return args.trace ? run_traced(args) : run_untraced(args);
    } catch (const std::exception& e) {
        std::cerr << "floretsim_perf: " << e.what() << '\n';
        return 1;
    }
}
