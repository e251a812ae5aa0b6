#include "src/scenario/spec_json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <stdexcept>
#include <string_view>

namespace floretsim::scenario {
namespace {

using util::Json;

[[noreturn]] void bad(const std::string& path, const std::string& msg) {
    throw std::invalid_argument("spec " + path + ": " + msg);
}

/// Checked narrowing for spec fields: a 64-bit value that does not fit
/// int32 must fail loudly, never wrap into a silently-different sweep.
std::int32_t to_int32(std::int64_t v, const char* what) {
    if (v < INT32_MIN || v > INT32_MAX)
        throw std::invalid_argument(std::string(what) + " out of int32 range");
    return static_cast<std::int32_t>(v);
}

// ---- Field lists ------------------------------------------------------------
//
// Each spec struct names its fields exactly once, here, in serialization
// order. A visitor `v` is called as v("key", field) for every field; the
// writer, the strict reader and the validator below are the only three.
// Two proxies stand in for fields whose JSON shape differs from their
// C++ shape: GridRef (width + height as one "WxH" key) and LowerNames
// (a name list stored ASCII-lowercased).

struct GridRef {
    std::int32_t& width;
    std::int32_t& height;
};

struct LowerNames {
    std::vector<std::string>& names;
};

template <typename V>
void fields(V& v, noc::SimConfig& c) {
    v("flit_bytes", c.flit_bytes);
    v("max_packet_flits", c.max_packet_flits);
    v("input_buffer_flits", c.input_buffer_flits);
    v("router_delay_cycles", c.router_delay_cycles);
    v("mm_per_cycle", c.mm_per_cycle);
    v("max_cycles", c.max_cycles);
    v("injection_rate", c.injection_rate);
    v("core", c.core);
    v("regions", c.regions);
}

template <typename V>
void fields(V& v, cost::CostParams& c) {
    v("router_area_base_mm2", c.router_area_base_mm2);
    v("router_area_per_port_mm2", c.router_area_per_port_mm2);
    v("router_area_per_port2_mm2", c.router_area_per_port2_mm2);
    v("link_area_per_mm_mm2", c.link_area_per_mm_mm2);
    v("router_energy_base_pj", c.router_energy_base_pj);
    v("router_energy_per_port_pj", c.router_energy_per_port_pj);
    v("link_energy_per_mm_pj", c.link_energy_per_mm_pj);
    v("router_leakage_base_mw", c.router_leakage_base_mw);
    v("router_leakage_per_port2_mw", c.router_leakage_per_port2_mw);
    v("link_leakage_per_mm_mw", c.link_leakage_per_mm_mw);
    v("defect_density_per_mm2", c.defect_density_per_mm2);
    v("ref_noi_area_mm2", c.ref_noi_area_mm2);
    v("ref_chiplets", c.ref_chiplets);
}

template <typename V>
void fields(V& v, core::EvalConfig& c) {
    v("sim", c.sim);
    v("cost", c.cost);
    v("bytes_per_elem", c.bytes_per_elem);
    v("traffic_scale", c.traffic_scale);
    v("include_weight_load", c.include_weight_load);
    v("io_node", c.io_node);
    v("round_epoch_cache", c.round_epoch_cache);
}

/// The custom-mix object form; a canonical Table II mix is written as its
/// bare name instead (see encode/decode).
template <typename V>
void fields(V& v, workload::ConcurrentMix& m) {
    v("name", m.name);
    v("entries", m.entries);
    v("paper_total_params_b", m.paper_total_params_b);
}

template <typename V>
void fields(V& v, core::SweepSpec& s) {
    v("archs", s.archs);
    v("grids", s.grids);
    v("mixes", s.mixes);
    v("evals", s.evals);
    v("swap_seed", s.swap_seed);
    v("greedy_max_gap", s.greedy_max_gap);
    v("run_seed", s.run_seed);
}

template <typename V>
void fields(V& v, core::SweepPoint& p) {
    v("arch", p.arch);
    v("grid", GridRef{p.width, p.height});
    v("mix", p.mix);
    v("eval", p.eval);
    v("swap_seed", p.swap_seed);
    v("greedy_max_gap", p.greedy_max_gap);
    v("run_seed", p.run_seed);
}

template <typename V>
void fields(V& v, core::experiment::DynamicResult& r) {
    v("total_cycles", r.total_cycles);
    v("total_energy_pj", r.total_energy_pj);
    v("flit_hops", r.flit_hops);
    v("rounds", r.rounds);
    v("task_rounds", r.task_rounds);
    v("all_completed", r.all_completed);
    v("noi_evals", r.noi_evals);
    v("round_epoch_hits", r.round_epoch_hits);
    v("sim_cycles_stepped", r.sim_cycles_stepped);
    v("sim_cycles_skipped", r.sim_cycles_skipped);
    v("sim_horizon_jumps", r.sim_horizon_jumps);
    v("sim_region_cycles_stepped", r.sim_region_cycles_stepped);
    v("sim_region_cycles_skipped", r.sim_region_cycles_skipped);
    v("sim_region_horizon_jumps", r.sim_region_horizon_jumps);
    v("sim_region_stepped_max", r.sim_region_stepped_max);
    v("sim_region_stepped_min", r.sim_region_stepped_min);
}

template <typename V>
void fields(V& v, core::SweepRow& r) {
    v("point", r.point);
    v("result", r.result);
    v("seconds", r.seconds);
}

template <typename V>
void fields(V& v, serve::RequestClass& c) {
    v("name", c.name);
    v("workload_ids", c.workload_ids);
    v("weight", c.weight);
    v("slo_cycles", c.slo_cycles);
}

template <typename V>
void fields(V& v, serve::ArrivalConfig& c) {
    v("process", c.process);
    v("rate_per_mcycle", c.rate_per_mcycle);
    v("burst_rate_multiplier", c.burst_rate_multiplier);
    v("normal_dwell_cycles", c.normal_dwell_cycles);
    v("burst_dwell_cycles", c.burst_dwell_cycles);
    v("trace_cycles", c.trace_cycles);
    v("max_requests", c.max_requests);
    v("min_rounds", c.min_rounds);
    v("max_rounds", c.max_rounds);
}

template <typename V>
void fields(V& v, serve::ServeConfig& c) {
    v("arrivals", c.arrivals);
    v("classes", c.classes);
    v("admission", c.admission);
    v("max_queue", c.max_queue);
    v("max_batch", c.max_batch);
    v("batch_traffic_alpha", c.batch_traffic_alpha);
    v("eval", c.eval);
    v("params_per_chiplet_m", c.params_per_chiplet_m);
    v("seed", c.seed);
}

template <typename V>
void fields(V& v, serve::ServeSpec& s) {
    v("arch", s.arch);
    v("grid", GridRef{s.width, s.height});
    v("swap_seed", s.swap_seed);
    v("greedy_max_gap", s.greedy_max_gap);
    v("config", s.config);
    v("replications", s.replications);
    v("base_seed", s.base_seed);
}

template <typename V>
void fields(V& v, ServeGridSpec& s) {
    v("base", s.base);
    v("archs", s.archs);
    v("loads_per_mcycle", s.loads_per_mcycle);
}

template <typename V>
void fields(V& v, ClusterSpec& s) {
    v("base", s.base);
    v("cluster_sizes", s.cluster_sizes);
    v("batch_caps", s.batch_caps);
    v("loads_per_mcycle", s.loads_per_mcycle);
    v("balance", s.balance);
}

template <typename V>
void fields(V& v, Moo3dVariant& m) {
    v("name", m.name);
    v("tier_pitch_mm", m.tier_pitch_mm);
    v("g_vertical_w_per_k", m.g_vertical_w_per_k);
}

template <typename V>
void fields(V& v, Moo3dSpec& s) {
    v("workloads", s.workloads);
    v("grid", GridRef{s.width, s.height});
    v("depth", s.depth);
    v("routing", s.routing);
    v("iterations", s.iterations);
    v("w_perf", s.w_perf);
    v("w_thermal", s.w_thermal);
    v("t_target_k", s.t_target_k);
    v("seed", s.seed);
    v("variants", s.variants);
}

template <typename V>
void fields(V& v, core::HeteroConfig& c) {
    v("macro_width", c.macro_width);
    v("macro_height", c.macro_height);
    v("lambda", c.lambda);
    v("attention_modules", c.attention_modules);
    v("params_per_chiplet_m", c.params_per_chiplet_m);
    v("pitch_mm", c.pitch_mm);
    v("sram_speedup", c.sram_speedup);
    v("reram_write_ns_per_elem", c.reram_write_ns_per_elem);
}

template <typename V>
void fields(V& v, TransformerSpec& s) {
    v("models", LowerNames{s.models});
    v("batches", s.batches);
    v("hetero", s.hetero);
}

template <typename V>
void fields(V& v, ScalingSpec& s) {
    v("sides", s.sides);
    v("archs", s.archs);
    v("lambdas", s.lambdas);
    v("eval", s.eval);
    v("mix_seed", s.mix_seed);
    v("swap_seed", s.swap_seed);
    v("greedy_max_gap", s.greedy_max_gap);
    v("run_seed", s.run_seed);
}

// ---- Range checks -----------------------------------------------------------
//
// One check per struct that has any; validate() runs them over a whole
// spec tree, children before parents. A custom mix is checked as it is
// decoded instead: the empty default mix of a bare SweepPoint means "no
// mix yet", not a malformed one.

template <typename T>
void check(const T&, const std::string&) {}

void check_workload_id(const std::string& id, const std::string& path) {
    try {
        (void)workload::workload_by_id(id);
    } catch (const std::invalid_argument& e) {
        bad(path, e.what());
    }
}

void check(const noc::SimConfig& c, const std::string& path) {
    if (c.max_cycles <= 0) bad(path, "\"max_cycles\" must be positive");
    if (!(c.injection_rate > 0.0)) bad(path, "\"injection_rate\" must be positive");
}

void check(const core::EvalConfig& c, const std::string& path) {
    if (!(c.traffic_scale > 0.0 && c.traffic_scale <= 1.0))
        bad(path, "\"traffic_scale\" must be in (0, 1]");
}

void check(const serve::RequestClass& c, const std::string& path) {
    if (c.name.empty()) bad(path, "request classes need a \"name\"");
    if (c.workload_ids.empty()) bad(path, "request classes need \"workload_ids\"");
    for (const auto& id : c.workload_ids) check_workload_id(id, path);
}

void check(const serve::ArrivalConfig& c, const std::string& path) {
    if (c.max_requests <= 0) bad(path, "\"max_requests\" must be positive");
}

void check(const serve::ServeConfig& c, const std::string& path) {
    if (c.max_batch < 1) bad(path, "\"max_batch\" must be >= 1");
    if (!(c.batch_traffic_alpha >= 0.0))
        bad(path, "\"batch_traffic_alpha\" must be >= 0");
    // Tenant class names key the per-class report rows; duplicates would
    // silently merge two tenants' SLO accounting.
    for (std::size_t a = 0; a < c.classes.size(); ++a)
        for (std::size_t b = a + 1; b < c.classes.size(); ++b)
            if (c.classes[a].name == c.classes[b].name)
                bad(path, "duplicate class name \"" + c.classes[a].name + "\"");
}

void check(const serve::ServeSpec& s, const std::string& path) {
    if (s.replications < 1) bad(path, "\"replications\" must be >= 1");
}

void check_loads(const std::vector<double>& loads, const std::string& path) {
    if (loads.empty()) bad(path, "\"loads_per_mcycle\" must not be empty");
    for (const double l : loads)
        if (!(l > 0.0)) bad(path, "offered loads must be > 0");
}

void check(const ServeGridSpec& s, const std::string& path) {
    check_loads(s.loads_per_mcycle, path);
}

void check(const ClusterSpec& s, const std::string& path) {
    if (s.cluster_sizes.empty()) bad(path, "\"cluster_sizes\" must not be empty");
    for (const auto k : s.cluster_sizes)
        if (k < 1) bad(path, "cluster sizes must be >= 1 fabrics");
    if (s.batch_caps.empty()) bad(path, "\"batch_caps\" must not be empty");
    for (const auto b : s.batch_caps)
        if (b < 1) bad(path, "batch caps must be >= 1");
    check_loads(s.loads_per_mcycle, path);
}

void check(const Moo3dVariant& v, const std::string& path) {
    if (v.name.empty()) bad(path, "variants need a \"name\"");
}

void check(const Moo3dSpec& s, const std::string& path) {
    if (s.workloads.empty()) bad(path, "specs need \"workloads\"");
    for (const auto& id : s.workloads) check_workload_id(id, path);
    if (s.depth <= 0) bad(path, "depth must be positive");
    if (s.iterations < 0) bad(path, "iterations must be non-negative");
}

void check(const TransformerSpec& s, const std::string& path) {
    if (s.models.empty()) bad(path, "specs need \"models\"");
    for (const auto& m : s.models) {
        try {
            (void)transformer_model_from_name(m);
        } catch (const std::invalid_argument& e) {
            bad(path, e.what());
        }
    }
    if (s.batches.empty()) bad(path, "specs need \"batches\"");
    for (const auto b : s.batches)
        if (b <= 0) bad(path, "batches must be positive");
}

void check(const ScalingSpec& s, const std::string& path) {
    if (s.sides.empty()) bad(path, "specs need \"sides\"");
    for (const auto side : s.sides)
        if (side <= 0) bad(path, "sides must be positive");
    if (s.archs.empty()) bad(path, "specs need \"archs\"");
    for (const auto l : s.lambdas)
        if (l <= 0) bad(path, "lambdas must be positive");
}

void check_mix(const workload::ConcurrentMix& m, const std::string& path) {
    if (m.name.empty()) bad(path, "custom mixes need a \"name\"");
    if (m.entries.empty()) bad(path, "custom mixes need \"entries\"");
    for (const auto& [id, count] : m.entries) {
        check_workload_id(id, path);
        if (count <= 0) bad(path, "instance count must be positive");
    }
}

// ---- The three visitors -----------------------------------------------------

template <typename T>
Json encode(const T& x);
template <typename T>
void decode(const Json& j, T& out, const std::string& path);
template <typename T>
void walk(const T& x, const std::string& path);

/// Emits every field, in fields() order.
struct Writer {
    Json json = Json::object();

    template <typename T>
    void operator()(const char* key, const T& field) {
        json.set(key, encode(field));
    }
};

/// Strict reader: a missing key keeps the default, an unknown key is an
/// error naming the object's path.
class Reader {
public:
    Reader(const Json& j, const std::string& path) : json_(j), path_(path) {
        if (j.kind() != Json::Kind::kObject)
            bad(path, std::string("expected an object, got ") + j.kind_name());
    }

    template <typename T>
    void operator()(const char* key, T&& field) {
        known_.push_back(key);
        if (const Json* v = json_.find(key)) decode(*v, field, path_ + "." + key);
    }

    void finish() const {
        for (const auto& [key, value] : json_.as_object()) {
            (void)value;
            if (std::find(known_.begin(), known_.end(), key) == known_.end())
                bad(path_, "unknown key \"" + key + "\"");
        }
    }

private:
    const Json& json_;
    const std::string& path_;
    std::vector<std::string_view> known_;
};

/// Runs check() on every struct of a spec tree.
struct Validator {
    const std::string& path;

    template <typename T>
    void operator()(const char* key, const T& field) {
        walk(field, path + "." + key);
    }
};

template <typename T>
concept HasFields = requires(Writer& w, T& x) { fields(w, x); };

template <typename T>
constexpr bool kIsVector = false;
template <typename T, typename A>
constexpr bool kIsVector<std::vector<T, A>> = true;

using Grid = std::pair<std::int32_t, std::int32_t>;
using MixEntry = std::pair<std::string, std::int32_t>;

/// The standalone default a spec struct is read onto: the serving structs
/// start from default_serve_config(), so a user spec that omits "eval"
/// measures on the same scale (1/64 traffic sampling etc.) as every
/// documented serving number.
template <typename T>
T default_of() {
    if constexpr (std::same_as<T, serve::ServeConfig>)
        return serve::default_serve_config();
    else if constexpr (std::same_as<T, serve::ServeSpec>)
        return ServeGridSpec::default_base();
    else
        return T{};
}

Json grid_to_json(Grid g) {
    return Json(std::to_string(g.first) + "x" + std::to_string(g.second));
}

Grid grid_from_json(const Json& j) {
    if (j.kind() == Json::Kind::kString) return grid_from_string(j.as_string());
    const auto& pair = j.as_array();
    if (pair.size() != 2)
        throw std::invalid_argument("grid array must be [width, height]");
    const std::int32_t w = to_int32(pair[0].as_int(), "grid width");
    const std::int32_t h = to_int32(pair[1].as_int(), "grid height");
    if (w <= 0 || h <= 0) throw std::invalid_argument("grid sides must be positive");
    return {w, h};
}

void decode_enum(const Json& j, core::experiment::Arch& e) { e = arch_from_json(j); }
void decode_enum(const Json& j, noc::SimCore& e) { e = sim_core_from_json(j); }
void decode_enum(const Json& j, serve::AdmissionPolicy& e) {
    e = admission_policy_from_json(j);
}
void decode_enum(const Json& j, serve::BalancePolicy& e) {
    e = balance_policy_from_json(j);
}
void decode_enum(const Json& j, serve::ArrivalProcess& e) {
    e = arrival_process_from_json(j);
}
void decode_enum(const Json& j, noc::RoutingPolicy& e) {
    e = routing_policy_from_json(j);
}

/// Scalars, enums and the small tuple shapes; throws bare messages that
/// decode() prefixes with the field's path.
template <typename T>
void decode_leaf(const Json& j, T& out) {
    if constexpr (std::is_enum_v<T>) {
        decode_enum(j, out);
    } else if constexpr (std::same_as<T, GridRef>) {
        const auto [w, h] = grid_from_json(j);
        out.width = w;
        out.height = h;
    } else if constexpr (std::same_as<T, Grid>) {
        out = grid_from_json(j);
    } else if constexpr (std::same_as<T, MixEntry>) {
        const auto& pair = j.as_array();
        if (pair.size() != 2)
            throw std::invalid_argument("each entry must be [workload_id, count]");
        out = {pair[0].as_string(), to_int32(pair[1].as_int(), "mix instance count")};
    } else if constexpr (std::same_as<T, bool>) {
        out = j.as_bool();
    } else if constexpr (std::same_as<T, std::int32_t>) {
        out = to_int32(j.as_int(), "value");
    } else if constexpr (std::same_as<T, std::int64_t>) {
        out = j.as_int();
    } else if constexpr (std::same_as<T, std::uint64_t>) {
        out = j.as_uint();
    } else if constexpr (std::same_as<T, double>) {
        out = j.as_double();
    } else {
        static_assert(std::same_as<T, std::string>, "no JSON codec for this field");
        out = j.as_string();
    }
}

template <typename T>
Json encode(const T& x) {
    if constexpr (kIsVector<T>) {
        Json items = Json::array();
        for (const auto& item : x) items.push_back(encode(item));
        return items;
    } else if constexpr (std::same_as<T, LowerNames>) {
        return encode(x.names);
    } else if constexpr (std::same_as<T, GridRef>) {
        return grid_to_json({x.width, x.height});
    } else if constexpr (std::same_as<T, Grid>) {
        return grid_to_json(x);
    } else if constexpr (std::same_as<T, MixEntry>) {
        Json pair = Json::array();
        pair.push_back(x.first);
        pair.push_back(x.second);
        return pair;
    } else if constexpr (std::is_enum_v<T>) {
        return to_json(x);
    } else if constexpr (HasFields<T>) {
        if constexpr (std::same_as<T, workload::ConcurrentMix>) {
            for (const auto& canonical : workload::table2())
                if (canonical.name == x.name && canonical == x) return Json(x.name);
        }
        Writer w;
        fields(w, const_cast<T&>(x));  // the writer only reads
        return std::move(w.json);
    } else {
        return Json(x);
    }
}

template <typename T>
void decode(const Json& j, T& out, const std::string& path) {
    if constexpr (kIsVector<T>) {
        if (j.kind() != Json::Kind::kArray)
            bad(path, std::string("expected an array, got ") + j.kind_name());
        T items;
        const auto& array = j.as_array();
        for (std::size_t i = 0; i < array.size(); ++i) {
            auto item = default_of<typename T::value_type>();
            decode(array[i], item, path + "[" + std::to_string(i) + "]");
            items.push_back(std::move(item));
        }
        out = std::move(items);
    } else if constexpr (std::same_as<T, LowerNames>) {
        decode(j, out.names, path);
        for (auto& name : out.names) name = ascii_lower(name);
    } else if constexpr (HasFields<T>) {
        if constexpr (std::same_as<T, workload::ConcurrentMix>) {
            if (j.kind() == Json::Kind::kString) {
                for (const auto& m : workload::table2())
                    if (m.name == j.as_string()) {
                        out = m;
                        return;
                    }
                bad(path, "unknown Table II mix \"" + j.as_string() + "\"");
            }
        }
        T x = default_of<T>();
        Reader r(j, path);
        fields(r, x);
        r.finish();
        if constexpr (std::same_as<T, workload::ConcurrentMix>) check_mix(x, path);
        out = std::move(x);
    } else {
        try {
            decode_leaf(j, out);
        } catch (const std::invalid_argument& e) {
            bad(path, e.what());
        }
    }
}

template <typename T>
void walk(const T& x, const std::string& path) {
    if constexpr (kIsVector<T>) {
        if constexpr (HasFields<typename T::value_type>)
            for (std::size_t i = 0; i < x.size(); ++i)
                walk(x[i], path + "[" + std::to_string(i) + "]");
    } else if constexpr (HasFields<T>) {
        Validator v{path};
        fields(v, const_cast<T&>(x));  // the validator only reads
        check(x, path);
    }
}

/// Parse + validate: the body of every public *_from_json below. `root`
/// names the value in error messages ("spec cluster.base: ...").
template <typename T>
T read(const Json& j, const std::string& root) {
    T x = default_of<T>();
    decode(j, x, root);
    walk(x, root);
    return x;
}

}  // namespace

std::string ascii_lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

// ---- Enums ------------------------------------------------------------------

Json to_json(core::experiment::Arch a) {
    return Json(ascii_lower(core::experiment::arch_name(a)));
}

core::experiment::Arch arch_from_string(const std::string& s) {
    const std::string v = ascii_lower(s);
    using core::experiment::Arch;
    if (v == "kite") return Arch::kKite;
    if (v == "siam" || v == "siam-mesh" || v == "mesh") return Arch::kSiamMesh;
    if (v == "swap") return Arch::kSwap;
    if (v == "floret") return Arch::kFloret;
    throw std::invalid_argument("unknown architecture \"" + s +
                                "\" (expected kite|siam|swap|floret)");
}

core::experiment::Arch arch_from_json(const Json& j) {
    return arch_from_string(j.as_string());
}

Json to_json(noc::SimCore c) { return Json(noc::sim_core_name(c)); }

noc::SimCore sim_core_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (const auto core = noc::sim_core_from_name(v)) return *core;
    throw std::invalid_argument("unknown sim core \"" + j.as_string() +
                                "\" (expected reference|event-horizon|regional)");
}

Json to_json(serve::AdmissionPolicy p) {
    switch (p) {
        case serve::AdmissionPolicy::kFifo: return Json("fifo");
        case serve::AdmissionPolicy::kEarliestDeadline: return Json("edf");
        case serve::AdmissionPolicy::kRejectOnFull: return Json("reject-on-full");
        case serve::AdmissionPolicy::kEdfEvict: return Json("edf-evict");
    }
    return Json("fifo");
}

serve::AdmissionPolicy admission_policy_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "fifo") return serve::AdmissionPolicy::kFifo;
    if (v == "edf" || v == "earliest-deadline")
        return serve::AdmissionPolicy::kEarliestDeadline;
    if (v == "reject-on-full") return serve::AdmissionPolicy::kRejectOnFull;
    if (v == "edf-evict") return serve::AdmissionPolicy::kEdfEvict;
    throw std::invalid_argument("unknown admission policy \"" + j.as_string() +
                                "\" (expected fifo|edf|reject-on-full|edf-evict)");
}

Json to_json(serve::BalancePolicy p) {
    return Json(serve::balance_policy_name(p));
}

serve::BalancePolicy balance_policy_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "least-loaded") return serve::BalancePolicy::kLeastLoaded;
    if (v == "model-affinity" || v == "affinity")
        return serve::BalancePolicy::kModelAffinity;
    throw std::invalid_argument("unknown balance policy \"" + j.as_string() +
                                "\" (expected least-loaded|model-affinity)");
}

Json to_json(serve::ArrivalProcess p) {
    return Json(ascii_lower(serve::arrival_process_name(p)));
}

serve::ArrivalProcess arrival_process_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "poisson") return serve::ArrivalProcess::kPoisson;
    if (v == "mmpp") return serve::ArrivalProcess::kMmpp;
    if (v == "trace") return serve::ArrivalProcess::kTrace;
    throw std::invalid_argument("unknown arrival process \"" + j.as_string() +
                                "\" (expected poisson|mmpp|trace)");
}

Json to_json(noc::RoutingPolicy p) {
    switch (p) {
        case noc::RoutingPolicy::kShortestPath: return Json("shortest_path");
        case noc::RoutingPolicy::kUpDown: return Json("updown");
        case noc::RoutingPolicy::kXY: return Json("xy");
    }
    return Json("shortest_path");
}

noc::RoutingPolicy routing_policy_from_json(const Json& j) {
    const std::string v = ascii_lower(j.as_string());
    if (v == "shortest_path" || v == "shortest-path")
        return noc::RoutingPolicy::kShortestPath;
    if (v == "updown" || v == "up-down") return noc::RoutingPolicy::kUpDown;
    if (v == "xy") return noc::RoutingPolicy::kXY;
    throw std::invalid_argument("unknown routing policy \"" + j.as_string() +
                                "\" (expected shortest_path|updown|xy)");
}

// ---- Name lookups -----------------------------------------------------------

std::pair<std::int32_t, std::int32_t> grid_from_string(const std::string& s) {
    const std::size_t x = s.find('x');
    if (x != std::string::npos && x > 0 && x + 1 < s.size()) {
        const auto side = [&](std::size_t from, std::size_t to) {
            std::int32_t v = -1;
            const auto [p, ec] = std::from_chars(s.data() + from, s.data() + to, v);
            return (ec == std::errc() && p == s.data() + to) ? v : -1;
        };
        const std::int32_t w = side(0, x);
        const std::int32_t h = side(x + 1, s.size());
        if (w > 0 && h > 0) return {w, h};
    }
    throw std::invalid_argument("grid \"" + s + "\" is not \"WxH\"");
}

dnn::TransformerConfig transformer_model_from_name(const std::string& name) {
    const std::string v = ascii_lower(name);
    if (v == "bert_tiny" || v == "bert-tiny") return dnn::bert_tiny();
    if (v == "bert_base" || v == "bert-base") return dnn::bert_base();
    throw std::invalid_argument("unknown transformer model \"" + name +
                                "\" (expected bert_tiny|bert_base)");
}

serve::ServeSpec ServeGridSpec::default_base() {
    serve::ServeSpec base;
    base.config = serve::default_serve_config();
    return base;
}

// ---- Struct (de)serialization: every body is the field visitor -------------

Json to_json(const noc::SimConfig& c) { return encode(c); }
noc::SimConfig sim_config_from_json(const Json& j) {
    return read<noc::SimConfig>(j, "sim");
}

Json to_json(const cost::CostParams& c) { return encode(c); }
cost::CostParams cost_params_from_json(const Json& j) {
    return read<cost::CostParams>(j, "cost");
}

Json to_json(const core::EvalConfig& c) { return encode(c); }
core::EvalConfig eval_config_from_json(const Json& j) {
    return read<core::EvalConfig>(j, "eval");
}

Json to_json(const workload::ConcurrentMix& m) { return encode(m); }
workload::ConcurrentMix mix_from_json(const Json& j) {
    return read<workload::ConcurrentMix>(j, "mix");
}

Json to_json(const core::SweepSpec& s) { return encode(s); }
core::SweepSpec sweep_spec_from_json(const Json& j) {
    return read<core::SweepSpec>(j, "sweep");
}

Json to_json(const core::SweepPoint& p) { return encode(p); }
core::SweepPoint sweep_point_from_json(const Json& j) {
    return read<core::SweepPoint>(j, "point");
}
Json to_json(const std::vector<core::SweepPoint>& pts) { return encode(pts); }
std::vector<core::SweepPoint> sweep_points_from_json(const Json& j) {
    return read<std::vector<core::SweepPoint>>(j, "points");
}

Json to_json(const core::experiment::DynamicResult& r) { return encode(r); }
core::experiment::DynamicResult dynamic_result_from_json(const Json& j) {
    return read<core::experiment::DynamicResult>(j, "result");
}

Json to_json(const core::SweepRow& r) { return encode(r); }
core::SweepRow sweep_row_from_json(const Json& j) {
    return read<core::SweepRow>(j, "row");
}
Json to_json(const std::vector<core::SweepRow>& rows) { return encode(rows); }
std::vector<core::SweepRow> sweep_rows_from_json(const Json& j) {
    return read<std::vector<core::SweepRow>>(j, "rows");
}

Json to_json(const serve::RequestClass& c) { return encode(c); }
serve::RequestClass request_class_from_json(const Json& j) {
    return read<serve::RequestClass>(j, "class");
}

Json to_json(const serve::ArrivalConfig& c) { return encode(c); }
serve::ArrivalConfig arrival_config_from_json(const Json& j) {
    return read<serve::ArrivalConfig>(j, "arrivals");
}

Json to_json(const serve::ServeConfig& c) { return encode(c); }
serve::ServeConfig serve_config_from_json(const Json& j) {
    return read<serve::ServeConfig>(j, "serve");
}

Json to_json(const serve::ServeSpec& s) { return encode(s); }
serve::ServeSpec serve_spec_from_json(const Json& j) {
    return read<serve::ServeSpec>(j, "serve_spec");
}

Json to_json(const ServeGridSpec& s) { return encode(s); }
ServeGridSpec serve_grid_spec_from_json(const Json& j) {
    return read<ServeGridSpec>(j, "serve_grid");
}

Json to_json(const ClusterSpec& s) { return encode(s); }
ClusterSpec cluster_spec_from_json(const Json& j) {
    return read<ClusterSpec>(j, "cluster");
}

Json to_json(const Moo3dSpec& s) { return encode(s); }
Moo3dSpec moo3d_spec_from_json(const Json& j) { return read<Moo3dSpec>(j, "moo3d"); }

Json to_json(const core::HeteroConfig& c) { return encode(c); }
core::HeteroConfig hetero_config_from_json(const Json& j) {
    return read<core::HeteroConfig>(j, "hetero");
}

Json to_json(const TransformerSpec& s) { return encode(s); }
TransformerSpec transformer_spec_from_json(const Json& j) {
    return read<TransformerSpec>(j, "transformer");
}

Json to_json(const ScalingSpec& s) { return encode(s); }
ScalingSpec scaling_spec_from_json(const Json& j) {
    return read<ScalingSpec>(j, "scaling");
}

// ---- Validation ---------------------------------------------------------------

void validate(const core::SweepSpec& s) { walk(s, "sweep"); }
void validate(const ServeGridSpec& s) { walk(s, "serve_grid"); }
void validate(const ClusterSpec& s) { walk(s, "cluster"); }
void validate(const Moo3dSpec& s) { walk(s, "moo3d"); }
void validate(const TransformerSpec& s) { walk(s, "transformer"); }
void validate(const ScalingSpec& s) { walk(s, "scaling"); }

}  // namespace floretsim::scenario
