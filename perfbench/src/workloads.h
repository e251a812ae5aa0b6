#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/checks.h"
#include "src/spans.h"

namespace perfbench {

/// Exact per-layer counts a workload adds up while it runs traced
/// (admissions, demands, annealer steps, ...), keyed by ledger name.
using Ledger = std::map<std::string, double>;

/// One benchmark workload: a fixed list of ops ("a pass"), each one call
/// into the library's public API, issued back to back on one thread.
/// Constructing a workload is its set-up: everything before the first op.
class Workload {
public:
    virtual ~Workload() = default;

    [[nodiscard]] virtual std::size_t ops_per_pass() const = 0;
    /// The timed call: op `i` of the pass.
    virtual void run_op(std::size_t i) = 0;
    /// Untimed checks of the op just run: on the first pass the cheap
    /// properties of its output (which is kept); later passes must
    /// reproduce the first pass exactly.
    [[nodiscard]] virtual Failures check_op(std::size_t i, bool first_pass) = 0;
    /// The expensive checks of op `i`'s first-pass output (independent
    /// recomputations, reference-core re-runs), run once after all timing
    /// so they neither stretch a pass nor raise the measured peak RSS.
    [[nodiscard]] virtual Failures deep_check(std::size_t i) = 0;
    /// Untimed, traced: calls the layers inside op `i` directly on the same
    /// inputs, one span per layer call, and adds exact counts to `ledger`.
    virtual void decompose(std::size_t i, SpanRecorder& rec, Ledger& ledger) = 0;
    /// Untimed, traced: fresh fabric (topology + route table) builds of
    /// everything the set-up built, one "fabric.build" span each.
    virtual void decompose_fabrics(SpanRecorder& rec) = 0;
    /// Fabrics (topology + route table) the set-up built.
    [[nodiscard]] virtual std::int64_t fabric_builds() const = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs the set-up of workload `name`. `seed` chooses the issue order of
/// the ops within each request and which ops are re-checked on the
/// reference simulator core; the ops' inputs are the registered specs'.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// traffic_scale override applied to the paper sweep's specs (the
/// registered 1/64 makes one pass ~16 s on one core).
inline constexpr const char* kPaperTrafficScale = "1/256";

}  // namespace perfbench
