#include "src/scenario/registry.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "src/scenario/cache.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace floretsim::scenario {
namespace {

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            const std::string& why) {
    throw std::invalid_argument("--set " + std::string(key) + "=" +
                                std::string(value) + ": " + why);
}

double parse_double(std::string_view key, std::string_view value) {
    double v = 0.0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || p != value.data() + value.size())
        bad_value(key, value, "expected a number");
    return v;
}

/// traffic_scale accepts the bench-doc notation "1/128" as well as plain
/// decimals.
double parse_ratio(std::string_view key, std::string_view value) {
    const std::size_t slash = value.find('/');
    if (slash == std::string_view::npos) return parse_double(key, value);
    const double num = parse_double(key, value.substr(0, slash));
    const double den = parse_double(key, value.substr(slash + 1));
    if (den == 0.0) bad_value(key, value, "division by zero");
    return num / den;
}

std::int64_t parse_int(std::string_view key, std::string_view value) {
    std::int64_t v = 0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || p != value.data() + value.size())
        bad_value(key, value, "expected an integer");
    return v;
}

std::uint64_t parse_uint(std::string_view key, std::string_view value) {
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc() || p != value.data() + value.size())
        bad_value(key, value, "expected a non-negative integer");
    return v;
}

std::pair<std::int32_t, std::int32_t> parse_grid(std::string_view key,
                                                 std::string_view value) {
    // Same strict parser as the JSON spec forms (grid_from_string), so a
    // grid that works in a spec file works on the CLI and vice versa.
    try {
        return grid_from_string(std::string(value));
    } catch (const std::invalid_argument&) {
        bad_value(key, value, "expected WxH, e.g. 12x12");
    }
}

std::int32_t parse_int32(std::string_view key, std::string_view value) {
    const std::int64_t v = parse_int(key, value);
    if (v < INT32_MIN || v > INT32_MAX) bad_value(key, value, "out of int32 range");
    return static_cast<std::int32_t>(v);
}

/// Runs a name lookup, re-throwing its error under the --set prefix.
template <typename Fn>
auto parse_with(std::string_view key, std::string_view value, Fn&& fn) {
    try {
        return fn();
    } catch (const std::invalid_argument& e) {
        bad_value(key, value, e.what());
    }
}

/// Parses a comma-separated value item by item; naming no item at all is
/// a usage error.
template <typename Parse>
auto parse_list(std::string_view key, std::string_view value, Parse&& parse) {
    std::vector<decltype(parse(std::string_view{}))> out;
    for (const auto& item : split_csv(value)) out.push_back(parse(item));
    if (out.empty()) bad_value(key, value, "empty list");
    return out;
}

/// Applies an EvalConfig mutation everywhere the spec carries one. A
/// sweep spec with an empty eval list means "the experiment default", so
/// the default is materialized first — otherwise the override would be
/// silently lost at expand() time. Returns false for kinds that carry no
/// EvalConfig at all (the annealing and Transformer studies never run the
/// flit simulator), so eval overrides don't pretend to land on them.
template <typename Fn>
bool mutate_evals(SpecVariant& spec, Fn&& fn) {
    if (auto* sweep = std::get_if<core::SweepSpec>(&spec)) {
        if (sweep->evals.empty())
            sweep->evals = {core::experiment::default_eval_config()};
        for (auto& eval : sweep->evals) fn(eval);
        return true;
    }
    if (auto* grid = std::get_if<ServeGridSpec>(&spec)) {
        fn(grid->base.config.eval);
        return true;
    }
    if (auto* cluster = std::get_if<ClusterSpec>(&spec)) {
        fn(cluster->base.config.eval);
        return true;
    }
    if (auto* scaling = std::get_if<ScalingSpec>(&spec)) {
        fn(scaling->eval);
        return true;
    }
    return false;
}

}  // namespace

std::vector<std::string> split_csv(std::string_view value) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string_view item = value.substr(
            start, comma == std::string_view::npos ? std::string_view::npos
                                                   : comma - start);
        if (!item.empty()) out.emplace_back(item);
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    return out;
}

const char* spec_kind_name(const SpecVariant& spec) {
    struct Namer {
        const char* operator()(const core::SweepSpec&) const { return "sweep"; }
        const char* operator()(const ServeGridSpec&) const { return "serve_grid"; }
        const char* operator()(const ClusterSpec&) const { return "cluster"; }
        const char* operator()(const Moo3dSpec&) const { return "moo3d"; }
        const char* operator()(const TransformerSpec&) const { return "transformer"; }
        const char* operator()(const ScalingSpec&) const { return "scaling"; }
    };
    return std::visit(Namer{}, spec);
}

util::Json to_json(const SpecVariant& spec) {
    return std::visit([](const auto& s) { return to_json(s); }, spec);
}

SpecVariant spec_from_json(const util::Json& j, const std::string& kind) {
    if (kind == "sweep") return sweep_spec_from_json(j);
    if (kind == "serve_grid") return serve_grid_spec_from_json(j);
    if (kind == "cluster") return cluster_spec_from_json(j);
    if (kind == "moo3d") return moo3d_spec_from_json(j);
    if (kind == "transformer") return transformer_spec_from_json(j);
    if (kind == "scaling") return scaling_spec_from_json(j);
    throw std::invalid_argument(
        "unknown spec kind \"" + kind +
        "\" (expected sweep|serve_grid|cluster|moo3d|transformer|scaling)");
}

std::uint64_t spec_hash(const SpecVariant& spec) {
    std::uint64_t h = util::fnv1a(kCacheFormatVersion);
    h = util::fnv1a(":spec:", h);
    h = util::fnv1a(spec_kind_name(spec), h);
    h = util::fnv1a(":", h);
    return util::fnv1a(util::json_serialize_compact(to_json(spec)), h);
}

std::vector<core::SweepPoint> scaling_points(const ScalingSpec& s) {
    std::vector<core::SweepPoint> points;
    points.reserve(s.sides.size() * s.archs.size());
    for (const auto side : s.sides) {
        // A fresh generator per side: each side's mix depends only on
        // (mix_seed, side), never on the position in the sides list.
        util::Rng mix_rng(s.mix_seed);
        std::string label = "S";
        label += std::to_string(side);
        const auto mix = workload::random_mix(mix_rng, 3 + side, label);
        for (const auto arch : s.archs) {
            core::SweepPoint p;
            p.arch = arch;
            p.width = side;
            p.height = side;
            p.mix = mix;
            p.eval = s.eval;
            p.swap_seed = s.swap_seed;
            p.greedy_max_gap = s.greedy_max_gap;
            p.run_seed = s.run_seed;
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::optional<std::vector<core::SweepPoint>> cacheable_points(
    const SpecVariant& spec) {
    if (const auto* sweep = std::get_if<core::SweepSpec>(&spec))
        return sweep->expand();
    if (const auto* scaling = std::get_if<ScalingSpec>(&spec))
        return scaling_points(*scaling);
    return std::nullopt;
}

void Registry::add(Scenario s) {
    if (!s.report)
        throw std::invalid_argument("scenario \"" + s.name +
                                    "\" has no report function");
    if (find(s.name) != nullptr)
        throw std::invalid_argument("duplicate scenario \"" + s.name + "\"");
    scenarios_.push_back(std::move(s));
}

const Scenario* Registry::find(const std::string& name) const {
    const auto it = std::find_if(scenarios_.begin(), scenarios_.end(),
                                 [&](const Scenario& s) { return s.name == name; });
    return it == scenarios_.end() ? nullptr : &*it;
}

const Scenario& Registry::at(const std::string& name) const {
    if (const Scenario* s = find(name)) return *s;
    std::string known;
    for (const auto& s : scenarios_) {
        if (!known.empty()) known += ", ";
        known += s.name;
    }
    throw std::invalid_argument("unknown scenario \"" + name + "\" (registered: " +
                                known + ")");
}

void set_seed(SpecVariant& spec, std::uint64_t seed) {
    if (auto* sweep = std::get_if<core::SweepSpec>(&spec))
        sweep->run_seed = seed;
    else if (auto* grid = std::get_if<ServeGridSpec>(&spec))
        grid->base.base_seed = seed;
    else if (auto* cluster = std::get_if<ClusterSpec>(&spec))
        cluster->base.base_seed = seed;
    else if (auto* moo = std::get_if<Moo3dSpec>(&spec))
        moo->seed = seed;
    else if (auto* scaling = std::get_if<ScalingSpec>(&spec))
        scaling->mix_seed = seed;
    // TransformerSpec: fully deterministic, nothing to seed.
}

std::uint64_t effective_seed(const SpecVariant& spec) {
    if (const auto* sweep = std::get_if<core::SweepSpec>(&spec))
        return sweep->run_seed;
    if (const auto* grid = std::get_if<ServeGridSpec>(&spec))
        return grid->base.base_seed;
    if (const auto* cluster = std::get_if<ClusterSpec>(&spec))
        return cluster->base.base_seed;
    if (const auto* moo = std::get_if<Moo3dSpec>(&spec)) return moo->seed;
    if (const auto* scaling = std::get_if<ScalingSpec>(&spec))
        return scaling->mix_seed;
    return 0;
}

bool is_eval_override_key(std::string_view key) {
    return key == "traffic_scale" || key == "max_cycles" ||
           key == "injection_rate" || key == "sim_core";
}

std::string override_keys_help() {
    return "grid, grids, archs, mixes, traffic_scale, max_cycles, "
           "injection_rate, sim_core, swap_seed, greedy_max_gap, seed, "
           "max_requests, replications, loads, fabrics, max_batch, balance, "
           "iterations, workloads, models, batches, sides, lambdas";
}

namespace {

/// The --set key table: parses `value` and stores it in every field the
/// key names. Range checks are left to validate(), which apply_override
/// runs on the result.
bool set_field(SpecVariant& spec, std::string_view key, std::string_view value) {
    auto* sweep = std::get_if<core::SweepSpec>(&spec);
    auto* grid = std::get_if<ServeGridSpec>(&spec);
    auto* cluster = std::get_if<ClusterSpec>(&spec);
    auto* moo = std::get_if<Moo3dSpec>(&spec);
    auto* transformer = std::get_if<TransformerSpec>(&spec);
    auto* scaling = std::get_if<ScalingSpec>(&spec);
    // The serving kinds share a base ServeSpec; overrides that land on it
    // apply identically to both.
    serve::ServeSpec* serve_base =
        grid ? &grid->base : (cluster ? &cluster->base : nullptr);
    const auto int32_list = [&] {
        return parse_list(key, value,
                          [&](std::string_view v) { return parse_int32(key, v); });
    };

    if (key == "grid" || key == "grids") {
        auto grids = parse_list(key, value,
                                [&](std::string_view g) { return parse_grid(key, g); });
        if (sweep) {
            sweep->grids = std::move(grids);
            return true;
        }
        if (grids.size() != 1)
            bad_value(key, value, "this scenario kind takes exactly one grid");
        if (serve_base) {
            serve_base->width = grids.front().first;
            serve_base->height = grids.front().second;
            return true;
        }
        if (moo) {
            moo->width = grids.front().first;
            moo->height = grids.front().second;
            return true;
        }
        if (transformer) {
            transformer->hetero.macro_width = grids.front().first;
            transformer->hetero.macro_height = grids.front().second;
            return true;
        }
        // Scaling systems are square by construction: sides defines them.
        return false;
    }
    if (key == "archs") {
        auto archs = parse_list(key, value, [&](std::string_view name) {
            return parse_with(key, value,
                              [&] { return arch_from_string(std::string(name)); });
        });
        if (sweep) {
            sweep->archs = std::move(archs);
            return true;
        }
        if (grid) {
            grid->archs = std::move(archs);
            return true;
        }
        if (cluster) {
            if (archs.size() != 1)
                bad_value(key, value,
                          "the cluster scenario replicates one architecture");
            cluster->base.arch = archs.front();
            return true;
        }
        if (scaling) {
            scaling->archs = std::move(archs);
            return true;
        }
        return false;
    }
    if (key == "mixes") {
        if (!sweep) return false;
        sweep->mixes = parse_list(key, value, [&](std::string_view name) {
            return parse_with(key, value, [&] {
                return mix_from_json(util::Json(std::string(name)));
            });
        });
        return true;
    }
    if (key == "traffic_scale") {
        const double scale = parse_ratio(key, value);
        return mutate_evals(spec,
                            [&](core::EvalConfig& e) { e.traffic_scale = scale; });
    }
    if (key == "max_cycles") {
        const std::int64_t cap = parse_int(key, value);
        return mutate_evals(spec,
                            [&](core::EvalConfig& e) { e.sim.max_cycles = cap; });
    }
    if (key == "injection_rate") {
        const double rate = parse_double(key, value);
        return mutate_evals(
            spec, [&](core::EvalConfig& e) { e.sim.injection_rate = rate; });
    }
    if (key == "sim_core") {
        const noc::SimCore core = parse_with(key, value, [&] {
            return sim_core_from_json(util::Json(std::string(value)));
        });
        return mutate_evals(spec, [&](core::EvalConfig& e) { e.sim.core = core; });
    }
    if (key == "swap_seed") {
        const std::uint64_t seed = parse_uint(key, value);
        if (sweep) {
            sweep->swap_seed = seed;
            return true;
        }
        if (serve_base) {
            serve_base->swap_seed = seed;
            return true;
        }
        if (scaling) {
            scaling->swap_seed = seed;
            return true;
        }
        return false;
    }
    if (key == "greedy_max_gap") {
        const std::int32_t gap = parse_int32(key, value);
        if (sweep) {
            sweep->greedy_max_gap = gap;
            return true;
        }
        if (serve_base) {
            serve_base->greedy_max_gap = gap;
            return true;
        }
        if (scaling) {
            scaling->greedy_max_gap = gap;
            return true;
        }
        return false;
    }
    if (key == "seed") {
        if (transformer) return false;  // deterministic: see set_seed
        set_seed(spec, parse_uint(key, value));
        return true;
    }
    if (key == "iterations") {
        if (!moo) return false;
        moo->iterations = parse_int32(key, value);
        return true;
    }
    if (key == "workloads") {
        if (!moo) return false;
        moo->workloads =
            parse_list(key, value, [](std::string_view id) { return std::string(id); });
        return true;
    }
    if (key == "models") {
        if (!transformer) return false;
        transformer->models = parse_list(key, value, [](std::string_view name) {
            return ascii_lower(std::string(name));
        });
        return true;
    }
    if (key == "batches") {
        if (!transformer) return false;
        transformer->batches = int32_list();
        return true;
    }
    if (key == "sides") {
        if (!scaling) return false;
        scaling->sides = int32_list();
        return true;
    }
    if (key == "lambdas") {
        if (!scaling) return false;
        scaling->lambdas = int32_list();
        return true;
    }
    if (key == "max_requests") {
        if (!serve_base) return false;
        serve_base->config.arrivals.max_requests = parse_int(key, value);
        return true;
    }
    if (key == "replications") {
        if (!serve_base) return false;
        serve_base->replications = parse_int32(key, value);
        return true;
    }
    if (key == "loads") {
        if (!grid && !cluster) return false;
        auto loads = parse_list(key, value,
                                [&](std::string_view l) { return parse_double(key, l); });
        if (grid)
            grid->loads_per_mcycle = std::move(loads);
        else
            cluster->loads_per_mcycle = std::move(loads);
        return true;
    }
    if (key == "fabrics") {
        if (!cluster) return false;
        cluster->cluster_sizes = int32_list();
        return true;
    }
    if (key == "max_batch") {
        if (!cluster) return false;
        cluster->batch_caps = int32_list();
        return true;
    }
    if (key == "balance") {
        if (!cluster) return false;
        cluster->balance = parse_with(key, value, [&] {
            return balance_policy_from_json(util::Json(std::string(value)));
        });
        return true;
    }
    throw std::invalid_argument("--set: unknown key \"" + std::string(key) +
                                "\" (supported: " + override_keys_help() + ")");
}

}  // namespace

bool apply_override(SpecVariant& spec, std::string_view key,
                    std::string_view value) {
    // Mutate a copy, so a rejected value leaves the caller's spec intact.
    SpecVariant next = spec;
    if (!set_field(next, key, value)) return false;
    parse_with(key, value,
               [&] { std::visit([](const auto& s) { validate(s); }, next); });
    spec = std::move(next);
    return true;
}

}  // namespace floretsim::scenario
