#include "src/workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <variant>

#include "src/core/evaluator.h"
#include "src/core/experiment.h"
#include "src/core/moo.h"
#include "src/core/sweep.h"
#include "src/cost/models.h"
#include "src/dnn/model_zoo.h"
#include "src/noc/simulator.h"
#include "src/pim/partitioner.h"
#include "src/scenario/registry.h"
#include "src/serve/cluster.h"
#include "src/thermal/power.h"
#include "src/topo/mesh.h"
#include "src/workload/tables.h"

namespace perfbench {

namespace fs = floretsim;
namespace ex = floretsim::core::experiment;

namespace {

/// splitmix64: the benchmark's own seeded stream (op order, checked ops),
/// fixed here so a seed means the same inputs on every toolchain.
class SeedStream {
public:
    explicit SeedStream(std::uint64_t seed) : x_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (x_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

private:
    std::uint64_t x_;
};

/// Issue order: requests stay in order; ops inside each block of
/// `block` consecutive ops are shuffled (Fisher-Yates).
std::vector<std::size_t> seeded_order(std::size_t n, std::size_t block, SeedStream& rng) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t b = 0; b < n; b += block) {
        const std::size_t len = std::min(block, n - b);
        for (std::size_t k = len; k > 1; --k)
            std::swap(order[b + k - 1], order[b + rng.below(k)]);
    }
    return order;
}

/// The first admission round of a round-based run, recomputed directly:
/// tasks map one at a time from the queue head until one does not fit
/// (an idle system relaxes the head, as run_mix_dynamic does), then each
/// mapped task's pipeline flows become scaled demands and one wormhole
/// simulation drains them. Every layer call gets its own span when `rec`
/// is set.
struct FirstRound {
    std::vector<fs::noc::Demand> demands;
    fs::noc::SimResult sim;
};

FirstRound first_round(const ex::BuiltArch& arch, const std::vector<std::string>& queue,
                       const fs::core::EvalConfig& eval, SpanRecorder* rec) {
    std::vector<std::unique_ptr<fs::dnn::Network>> owner;
    const auto tasks = fs::core::make_tasks(queue, ex::kParamsPerChipletM, owner);
    arch.mapper->reset();
    std::vector<fs::core::MappedTask> mapped;
    for (const auto& task : tasks) {
        std::vector<fs::core::MappedTask> one;
        {
            const ScopedSpan s(rec, "mapper.map_queue", "mapper");
            one = arch.mapper->map_queue(std::span(&task, 1), nullptr);
        }
        if (!one.front().mapped) {
            if (!mapped.empty()) break;
            one.front() = arch.mapper->map_one_relaxed(task);
            if (!one.front().mapped) break;
        }
        mapped.push_back(std::move(one.front()));
    }
    FirstRound out;
    for (const auto& task : mapped) {
        std::vector<fs::dnn::Flow> flows;
        {
            const ScopedSpan s(rec, "traffic.pipeline_flows", "traffic");
            flows = fs::core::pipeline_flows(task, eval.bytes_per_elem);
        }
        for (const auto& f : flows)
            if (f.bytes > 0 && f.src != f.dst)
                out.demands.push_back(fs::noc::Demand{
                    f.src, f.dst,
                    std::max<std::int64_t>(
                        1, std::llround(static_cast<double>(f.bytes) * eval.traffic_scale))});
    }
    {
        const ScopedSpan s(rec, "noc.simulator_run", "noc");
        fs::noc::Simulator sim(arch.topology(), arch.routes(), eval.sim);
        sim.add_demands(out.demands);
        out.sim = sim.run();
    }
    if (rec) {
        const ScopedSpan s(rec, "cost.noi_energy_pj", "cost");
        (void)fs::cost::noi_energy_pj(arch.topology(), out.sim, eval.cost);
    }
    for (const auto& task : mapped) {
        const ScopedSpan s(rec, "mapper.release", "mapper");
        arch.mapper->release(task);
    }
    return out;
}

void build_fabric_span(SpanRecorder& rec, ex::Arch a, std::int32_t w, std::int32_t h,
                       std::uint64_t swap_seed) {
    const ScopedSpan s(&rec, "fabric.build", "fabric");
    (void)ex::build_fabric(a, w, h, swap_seed);
}

// ---- paper_sweep ------------------------------------------------------------

/// fig3, fig5 and table2 each request the same 20 Table II points; each op
/// is one single-point SweepEngine::run on a one-thread engine whose
/// fabric cache the set-up filled.
class PaperSweep final : public Workload {
public:
    explicit PaperSweep(std::uint64_t seed) {
        const auto& reg = fs::scenario::Registry::builtin();
        for (const char* name : {"fig3", "fig5", "table2"}) {
            auto spec = reg.at(name).spec;
            if (!fs::scenario::apply_override(spec, "traffic_scale", kPaperTrafficScale))
                throw std::logic_error(std::string(name) + " rejects traffic_scale");
            auto pts = fs::scenario::cacheable_points(spec);
            if (!pts || pts->empty()) throw std::logic_error(std::string(name) + ": no points");
            if (block_ == 0) block_ = pts->size();
            if (pts->size() != block_)
                throw std::logic_error("the three requests differ in size");
            points_.insert(points_.end(), pts->begin(), pts->end());
        }
        engine_ = std::make_unique<fs::core::SweepEngine>(1);
        for (const auto& p : points_)
            (void)engine_->cache().get(p.arch, p.width, p.height, p.swap_seed);
        SeedStream rng(seed);
        order_ = seeded_order(points_.size(), block_, rng);
        // One reference-core re-check per arch, on a seed-chosen point of
        // the first request.
        std::set<ex::Arch> archs;
        for (std::size_t j = 0; j < block_; ++j) archs.insert(points_[j].arch);
        for (const auto a : archs) {
            std::vector<std::size_t> of_arch;
            for (std::size_t j = 0; j < block_; ++j)
                if (points_[j].arch == a) of_arch.push_back(j);
            reference_checked_.insert(of_arch[rng.below(of_arch.size())]);
        }
        first_.resize(points_.size());
    }

    std::size_t ops_per_pass() const override { return points_.size(); }

    void run_op(std::size_t i) override {
        auto res = engine_->run(std::vector<fs::core::SweepPoint>{points_[order_[i]]});
        row_ = std::move(res.rows.at(0));
    }

    Failures check_op(std::size_t i, bool first_pass) override {
        const std::size_t k = order_[i];
        if (!first_pass) return dynamic_semantics_differ(row_.result, first_[k].result);
        Failures f = check_sweep_row(row_);
        if (!(row_.point == points_[k])) f.push_back("row carries the wrong point");
        first_[k] = row_;
        // Requests run in order, so the first request's row for the same
        // point is already kept.
        const std::size_t j = k % block_;
        if (k != j && !(first_[j].result == row_.result))
            f.push_back("requests for the same point returned different rows");
        return f;
    }

    Failures deep_check(std::size_t i) override {
        const std::size_t k = order_[i];
        Failures f;
        if (k >= block_) return f;  // one check per distinct point
        const auto& p = points_[k];
        const auto arch = ex::build_arch(engine_->cache(), p.arch, p.width, p.height,
                                         p.swap_seed, p.greedy_max_gap);
        const auto round = first_round(arch, fs::workload::expand_mix(p.mix), p.eval, nullptr);
        for (auto& m : check_direct_sim(round.sim, round.demands, arch.routes(), p.eval.sim))
            f.push_back("first mapped set: " + m);
        if (reference_checked_.count(k)) {
            auto q = p;
            q.eval.sim.core = fs::noc::SimCore::kReference;
            const auto ref = fs::core::evaluate_point(engine_->cache(), q);
            for (auto& m : dynamic_semantics_differ(first_[k].result, ref.result))
                f.push_back("reference core: " + m);
        }
        return f;
    }

    void decompose(std::size_t i, SpanRecorder& rec, Ledger& ledger) override {
        const auto& p = points_[order_[i]];
        const auto arch = ex::build_arch(engine_->cache(), p.arch, p.width, p.height,
                                         p.swap_seed, p.greedy_max_gap);
        const auto round = first_round(arch, fs::workload::expand_mix(p.mix), p.eval, &rec);
        ledger["traffic.demands"] += static_cast<double>(round.demands.size());
        ledger["direct_sims"] += 1;
        ledger["mapper.calls"] += static_cast<double>(p.mix.total_instances());
        ledger["sweep.requested_points"] += 1;
    }

    void decompose_fabrics(SpanRecorder& rec) override {
        std::set<std::tuple<ex::Arch, std::int32_t, std::int32_t, std::uint64_t>> keys;
        for (const auto& p : points_) keys.insert({p.arch, p.width, p.height, p.swap_seed});
        for (const auto& [a, w, h, s] : keys) build_fabric_span(rec, a, w, h, s);
    }

    std::int64_t fabric_builds() const override { return engine_->cache().misses(); }

private:
    std::vector<fs::core::SweepPoint> points_;
    std::size_t block_ = 0;
    std::unique_ptr<fs::core::SweepEngine> engine_;
    std::vector<std::size_t> order_;
    std::set<std::size_t> reference_checked_;
    std::vector<fs::core::SweepRow> first_;  ///< By point index.
    fs::core::SweepRow row_;
};

// ---- serving_cluster ---------------------------------------------------------

/// The registered `cluster` spec's K x batch x load x replication calls,
/// each one serve::serve_cluster over K fabric replicas.
class ServingCluster final : public Workload {
public:
    explicit ServingCluster(std::uint64_t seed) {
        const auto& reg = fs::scenario::Registry::builtin();
        spec_ = std::get<fs::scenario::ClusterSpec>(reg.at("cluster").spec);
        const auto& base = spec_.base;
        cache_ = std::make_unique<ex::ArchCache>();
        const auto reps = static_cast<std::size_t>(std::max(base.replications, 1));
        for (const auto k : spec_.cluster_sizes)
            for (const auto b : spec_.batch_caps)
                for (const double load : spec_.loads_per_mcycle)
                    for (std::size_t r = 0; r < reps; ++r) {
                        Call c;
                        for (std::int32_t f = 0; f < k; ++f)
                            c.fabrics.push_back(ex::build_arch(*cache_, base.arch, base.width,
                                                               base.height, base.swap_seed,
                                                               base.greedy_max_gap));
                        c.cfg = base.config;
                        c.cfg.max_batch = b;
                        c.cfg.arrivals.rate_per_mcycle = load;
                        c.cfg.seed = base.base_seed + r;
                        calls_.push_back(std::move(c));
                    }
        for (const auto& cls : base.config.classes)
            queue_.insert(queue_.end(), cls.workload_ids.begin(), cls.workload_ids.end());
        SeedStream rng(seed);
        order_ = seeded_order(calls_.size(), calls_.size(), rng);
        reference_checked_ = rng.below(calls_.size());
        first_.resize(calls_.size());
    }

    std::size_t ops_per_pass() const override { return calls_.size(); }

    void run_op(std::size_t i) override {
        auto& c = calls_[order_[i]];
        stats_ = fs::serve::serve_cluster(c.fabrics, c.cfg, spec_.balance);
    }

    Failures check_op(std::size_t i, bool first_pass) override {
        const std::size_t k = order_[i];
        if (!first_pass) return cluster_semantics_differ(stats_, first_[k]);
        const auto& c = calls_[k];
        first_[k] = stats_;
        return check_cluster(stats_, c.cfg.arrivals.max_requests, c.cfg.max_batch);
    }

    Failures deep_check(std::size_t i) override {
        const std::size_t k = order_[i];
        Failures f;
        if (k != reference_checked_) return f;
        auto& c = calls_[k];
        auto cfg = c.cfg;
        cfg.eval.sim.core = fs::noc::SimCore::kReference;
        const auto ref = fs::serve::serve_cluster(c.fabrics, cfg, spec_.balance);
        for (auto& m : cluster_semantics_differ(first_[k], ref))
            f.push_back("reference core: " + m);
        return f;
    }

    void decompose(std::size_t i, SpanRecorder& rec, Ledger& ledger) override {
        const auto& c = calls_[order_[i]];
        const auto round = first_round(c.fabrics.front(), queue_, c.cfg.eval, &rec);
        ledger["traffic.demands"] += static_cast<double>(round.demands.size());
        ledger["direct_sims"] += 1;
    }

    void decompose_fabrics(SpanRecorder& rec) override {
        const auto& b = spec_.base;
        build_fabric_span(rec, b.arch, b.width, b.height, b.swap_seed);
    }

    std::int64_t fabric_builds() const override { return cache_->misses(); }

private:
    struct Call {
        std::vector<ex::BuiltArch> fabrics;
        fs::serve::ServeConfig cfg;
    };
    fs::scenario::ClusterSpec spec_;
    std::unique_ptr<ex::ArchCache> cache_;
    std::vector<Call> calls_;
    std::vector<std::string> queue_;  ///< One task of every tenant model.
    std::vector<std::size_t> order_;
    std::size_t reference_checked_ = 0;
    std::vector<fs::serve::ClusterStats> first_;
    fs::serve::ClusterStats stats_;
};

// ---- placement_3d ------------------------------------------------------------

/// The registered `fig6` spec: optimize_perf_only and optimize_joint for
/// each DNN on the 3D PE stack. No wormhole simulation runs here.
class Placement3d final : public Workload {
public:
    explicit Placement3d(std::uint64_t seed) {
        const auto& reg = fs::scenario::Registry::builtin();
        spec_ = std::get<fs::scenario::Moo3dSpec>(reg.at("fig6").spec);
        const auto var = spec_.variants.empty() ? fs::scenario::Moo3dVariant{}
                                                : spec_.variants.front();
        topo_ = std::make_unique<fs::topo::Topology>(fs::topo::make_mesh3d(
            spec_.width, spec_.height, spec_.depth, 1.0, var.tier_pitch_mm));
        routes_ = std::make_unique<fs::noc::RouteTable>(
            fs::noc::RouteTable::build(*topo_, spec_.routing));
        ++fabric_builds_;
        tier_pitch_mm_ = var.tier_pitch_mm;
        base_.routes = routes_.get();
        base_.tcfg.width = spec_.width;
        base_.tcfg.height = spec_.height;
        base_.tcfg.depth = spec_.depth;
        base_.tcfg.g_vertical_w_per_k = var.g_vertical_w_per_k;
        base_.moo.iterations = spec_.iterations;
        base_.moo.w_perf = spec_.w_perf;
        base_.moo.w_thermal = spec_.w_thermal;
        base_.moo.t_target_k = spec_.t_target_k;
        base_.moo.seed = spec_.seed;
        for (const auto& id : spec_.workloads) dnns_.push_back(build_dnn(id));
        SeedStream rng(seed);
        order_ = seeded_order(2 * dnns_.size(), 2 * dnns_.size(), rng);
        first_.resize(2 * dnns_.size());
    }

    std::size_t ops_per_pass() const override { return 2 * dnns_.size(); }

    void run_op(std::size_t i) override {
        const auto in = inputs(order_[i]);
        result_ = order_[i] % 2 == 0
                      ? fs::core::optimize_perf_only(*in.net, *in.plan, *in.routes, in.tcfg,
                                                     in.pcfg, in.rcfg, in.acc, in.perf, in.moo)
                      : fs::core::optimize_joint(*in.net, *in.plan, *in.routes, in.tcfg,
                                                 in.pcfg, in.rcfg, in.acc, in.perf, in.moo);
    }

    Failures check_op(std::size_t i, bool first_pass) override {
        const std::size_t k = order_[i];
        if (!first_pass) {
            Failures f;
            if (result_.pe_order != first_[k].pe_order ||
                result_.accepted_moves != first_[k].accepted_moves)
                f.push_back("annealer result differs from the first pass");
            return f;
        }
        first_[k] = result_;
        return {};
    }

    Failures deep_check(std::size_t i) override {
        const std::size_t k = order_[i];
        return check_placement(first_[k], inputs(k));
    }

    void decompose(std::size_t i, SpanRecorder& rec, Ledger& ledger) override {
        const std::size_t k = order_[i];
        {
            const ScopedSpan s(&rec, "pim.setup", "pim");
            (void)build_dnn(spec_.workloads[k / 2]);
        }
        const auto in = inputs(k);
        const auto start = fs::core::sfc3d_order(spec_.width, spec_.height, spec_.depth);
        {
            const ScopedSpan s(&rec, "moo.evaluate_placement", "moo");
            (void)fs::core::evaluate_placement(*in.net, *in.plan, start, *in.routes, in.tcfg,
                                               in.pcfg, in.rcfg, in.acc, in.perf);
        }
        const auto layer_nodes = fs::pim::assign_layers(*in.net, *in.plan, result_.pe_order);
        std::vector<double> power;
        {
            const ScopedSpan s(&rec, "thermal.pe_power_map", "thermal");
            power = fs::thermal::pe_power_map(*in.net, layer_nodes, in.tcfg.cells(), in.pcfg);
        }
        fs::thermal::ThermalResult t;
        {
            const ScopedSpan s(&rec, "thermal.solve_steady_state", "thermal");
            t = fs::thermal::solve_steady_state(in.tcfg, power);
        }
        ledger["thermal.sor_iterations"] += t.iterations;
        ledger["thermal.solves"] += 1;
        ledger["moo.steps"] += in.moo.iterations;
        ledger["moo.accepted"] += result_.accepted_moves;
    }

    void decompose_fabrics(SpanRecorder& rec) override {
        const ScopedSpan s(&rec, "fabric.build", "fabric");
        const auto t = fs::topo::make_mesh3d(spec_.width, spec_.height, spec_.depth, 1.0,
                                             tier_pitch_mm_);
        (void)fs::noc::RouteTable::build(t, spec_.routing);
    }

    std::int64_t fabric_builds() const override { return fabric_builds_; }

private:
    struct Dnn {
        std::unique_ptr<fs::dnn::Network> net;
        fs::pim::PartitionPlan plan;
        fs::thermal::PowerParams pcfg;
    };

    Dnn build_dnn(const std::string& id) const {
        const auto& w = fs::workload::workload_by_id(id);
        Dnn d;
        d.net = std::make_unique<fs::dnn::Network>(fs::dnn::build_model(w.model, w.dataset));
        d.plan = fs::pim::partition_by_params(*d.net, w.paper_params_m,
                                              w.paper_params_m / 88.0);
        d.pcfg.inference_period_ns = fs::pim::pipeline_period_ns(*d.net, d.plan, base_.rcfg);
        return d;
    }

    /// Op k: DNN k / 2, performance-only when k is even, joint when odd.
    PlacementInputs inputs(std::size_t k) const {
        PlacementInputs in = base_;
        const auto& d = dnns_[k / 2];
        in.net = d.net.get();
        in.plan = &d.plan;
        in.pcfg = d.pcfg;
        if (k % 2 == 0) in.moo.w_thermal = 0.0;
        return in;
    }

    fs::scenario::Moo3dSpec spec_;
    std::unique_ptr<fs::topo::Topology> topo_;
    std::unique_ptr<fs::noc::RouteTable> routes_;
    std::int64_t fabric_builds_ = 0;
    double tier_pitch_mm_ = 0.05;
    PlacementInputs base_;
    std::vector<Dnn> dnns_;
    std::vector<std::size_t> order_;
    std::vector<fs::core::MooResult> first_;
    fs::core::MooResult result_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"paper_sweep", "serving_cluster",
                                                "placement_3d"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "paper_sweep") return std::make_unique<PaperSweep>(seed);
    if (name == "serving_cluster") return std::make_unique<ServingCluster>(seed);
    if (name == "placement_3d") return std::make_unique<Placement3d>(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
