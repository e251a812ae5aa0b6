#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/sweep.h"

namespace floretsim::scenario {

/// The row and heartbeat envelopes behind process-level sweep
/// distribution, plus the helpers a multi-process coordinator needs. The
/// persistent fleet (src/fleet/) is the one executor built on them;
/// fleet_parity pins the contract end to end:
///
///   request:  a serialized SweepPoint list (scenario::to_json) written
///             to a file and parsed back by points_from_text;
///   rows:     one newline-delimited JSON {"index": i, "row": {...}} line
///             per finished point, tagged with the point's *global* index
///             (completion order is arbitrary; content per index is
///             deterministic), interleaved with {"hb": {...}} heartbeat
///             envelopes reporting live progress;
///   merge:    MergedRowFileStream places rows back into point order (and
///             skips heartbeat lines), so the unchanged report functions
///             see exactly what a local SweepEngine::run would have
///             produced — every figure is bit-identical in 1 process,
///             N threads, or N processes, with tracing/metrics on or off.

/// Validates and clamps a worker's --threads request: negative requests
/// are an error (throws std::invalid_argument — the coordinator must see
/// the worker die, not silently run serial), 0 keeps the engine's
/// hardware-concurrency default, and explicit requests are clamped to
/// kMaxWorkerThreads. Clamps are noted on `err`.
inline constexpr std::int32_t kMaxWorkerThreads = 256;
[[nodiscard]] std::int32_t clamp_worker_threads(std::int32_t requested,
                                                std::ostream& err);

// ---- The worker protocol ----------------------------------------------------

/// Parses a points file's text. Rejects (std::invalid_argument) malformed
/// JSON, malformed points, and the empty list — a worker handed no work
/// is a coordinator bug, not a successful no-op.
[[nodiscard]] std::vector<core::SweepPoint> points_from_text(
    std::string_view text, const std::string& context);

/// One line of the worker's row stream: the global point index plus the
/// finished row.
struct IndexedRow {
    std::size_t index = 0;
    core::SweepRow row;
};

/// Serializes one row-stream line: {"index": i, "row": {...}}, compact
/// (single line, no trailing newline).
[[nodiscard]] std::string worker_row_line(std::size_t index,
                                          const core::SweepRow& row);

/// Parses one row-stream line; strict (exactly the keys index and row).
/// Throws std::invalid_argument on anything else.
[[nodiscard]] IndexedRow worker_row_from_line(std::string_view line);

/// Live progress report from a worker: which worker it is (`shard` of
/// `n_shards` on the wire), how far through its leased points it is, and
/// its wall clock so far. Emitted as its own NDJSON envelope {"hb": {...}}
/// interleaved with the row lines, so the coordinator can print
/// per-worker progress and spot stragglers while the sweep runs.
struct Heartbeat {
    std::int32_t shard = 0;
    std::int32_t n_shards = 1;
    std::uint64_t done = 0;   ///< Points finished (rows + failures).
    std::uint64_t total = 0;  ///< Points leased to this worker so far.
    double seconds = 0.0;     ///< Worker wall clock since sweep start.

    friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// Serializes one heartbeat line: {"hb": {...}}, compact (single line, no
/// trailing newline).
[[nodiscard]] std::string heartbeat_line(const Heartbeat& hb);

/// One parsed line of a worker stream: exactly one of `row` / `hb` is
/// set. Rows and heartbeats share the stream, so consumers dispatch on
/// the envelope instead of assuming every line is a row.
struct StreamLine {
    std::optional<IndexedRow> row;
    std::optional<Heartbeat> hb;
};

/// Parses one worker-stream line: a {"hb": {...}} heartbeat (strict:
/// exactly the keys shard/n_shards/done/total/seconds, valid shard range,
/// done <= total, finite non-negative seconds) or an {"index","row"}
/// envelope. Throws std::invalid_argument on anything else.
[[nodiscard]] StreamLine stream_line_from(std::string_view line);

// ---- Process-coordination helpers ------------------------------------------
// Used by the fleet coordinator (src/fleet/): anything that spawns
// workers and reads their exit status needs these.

/// Ignores SIGPIPE process-wide (idempotent; leaves a non-default
/// disposition installed by the host application alone). A coordinator
/// writing a frame to a worker that just died must see EPIPE from
/// write(), not a fatal signal — one dead worker can never take the
/// whole sweep down with it.
void ensure_sigpipe_ignored();

/// Human-readable description of a waitpid()/pclose() status:
/// "exited with status 3" or "died on signal 9 (Killed)".
[[nodiscard]] std::string describe_wait_status(int status);

/// Absorbs one worker's --trace-out / --metrics-out file into the
/// process-global obs sinks. Lenient by design: observability must never
/// fail a sweep that produced correct rows, so a missing or corrupt file
/// is a warning on `warn` (null = silent), not an error. Empty paths are
/// skipped.
void absorb_worker_obs(const std::string& trace_path,
                       const std::string& metrics_path, std::int32_t worker,
                       std::ostream* warn);

/// This process's executable path: /proc/self/exe when readable (Linux),
/// else `argv0` as given.
[[nodiscard]] std::string self_exe_path(const char* argv0);

/// Streaming merge over an NDJSON row file: one up-front indexing scan
/// records each point's byte offset — validating that every point has
/// exactly one row and skipping heartbeat envelopes — and next() then
/// seeks and parses ONE line per call, yielding rows in point order.
/// Coordinator memory is O(points) small fixed-size offsets plus a single
/// resident row, never O(rows) of parsed results — the property that lets
/// a million-point sweep merge in constant memory, pinned by
/// peak_resident_rows() in the shard tests. The indexing scan throws
/// std::runtime_error (naming the row file) on an unreadable file, an
/// unparseable line, an out-of-range index, or a duplicate/missing point.
/// `cleanup` runs, and is then released with whatever it captured, when
/// the stream is destroyed or its construction fails: the coordinator
/// passes one that deletes its scratch files, so they disappear even when
/// the consumer abandons the stream mid-iteration. It must not throw.
class MergedRowFileStream final : public core::RowStream {
public:
    MergedRowFileStream(std::string row_path, std::size_t n_points,
                        std::function<void()> cleanup = {});
    MergedRowFileStream(const MergedRowFileStream&) = delete;
    MergedRowFileStream& operator=(const MergedRowFileStream&) = delete;

    [[nodiscard]] std::optional<core::SweepRow> next() override;
    [[nodiscard]] std::size_t size() const override { return offsets_.size(); }

    /// The most parsed rows this stream ever held at once — 1 by
    /// construction; a regression back to materialize-then-merge would
    /// make it the row count.
    [[nodiscard]] std::size_t peak_resident_rows() const { return peak_resident_; }

private:
    /// Runs the cleanup callback when destroyed. Declared first, so it
    /// runs last: after file_ is closed, and also when construction fails.
    class Cleanup {
    public:
        explicit Cleanup(std::function<void()> fn) : fn_(std::move(fn)) {}
        ~Cleanup() {
            if (fn_) fn_();
        }
        Cleanup(const Cleanup&) = delete;
        Cleanup& operator=(const Cleanup&) = delete;

    private:
        std::function<void()> fn_;
    };
    Cleanup cleanup_;
    std::string row_path_;
    std::ifstream file_;
    std::vector<std::uint64_t> offsets_;  ///< Per point, in point order.
    std::size_t pos_ = 0;
    std::size_t peak_resident_ = 0;
};

}  // namespace floretsim::scenario
