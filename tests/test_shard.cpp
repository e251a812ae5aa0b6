/// Unit pins for the process-distribution layer (src/scenario/shard.h):
/// worker thread clamping, the NDJSON row and heartbeat envelopes, the
/// streaming row merge, wait-status descriptions, and the SweepEngine
/// stream-executor seam. The end-to-end multi-process differential
/// (1 process vs --pool 2 vs --pool 4, with and without a killed worker)
/// is the fleet_parity ctest (scripts/fleet_parity.sh), which exercises
/// the real fleet transport.

#include "src/scenario/shard.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/sweep.h"
#include "src/scenario/spec_json.h"
#include "src/util/json.h"
#include "src/workload/tables.h"

namespace floretsim::scenario {
namespace {

namespace experiment = core::experiment;
using experiment::Arch;

core::SweepSpec tiny_spec() {
    core::SweepSpec spec;
    spec.archs = {Arch::kSiamMesh, Arch::kFloret};
    spec.grids = {{6, 6}};
    spec.mixes = {workload::table2().front()};
    auto cfg = experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;  // keep tests quick
    spec.evals = {cfg};
    spec.greedy_max_gap = 2;
    return spec;
}

// ------------------------------------------------------- worker threads

TEST(ShardPlan, ClampWorkerThreads) {
    std::ostringstream err;
    EXPECT_EQ(clamp_worker_threads(0, err), 0);  // hardware default
    EXPECT_EQ(clamp_worker_threads(4, err), 4);  // in range
    EXPECT_EQ(clamp_worker_threads(kMaxWorkerThreads, err), kMaxWorkerThreads);
    EXPECT_TRUE(err.str().empty());
    EXPECT_EQ(clamp_worker_threads(100000, err), kMaxWorkerThreads);
    EXPECT_NE(err.str().find("clamping"), std::string::npos);
    EXPECT_THROW((void)clamp_worker_threads(-1, err), std::invalid_argument);
}

// ------------------------------------------------------------ row protocol

TEST(ShardProtocol, WorkerRowLineRoundTrips) {
    core::SweepRow row;
    row.point = tiny_spec().expand().front();
    row.result.total_cycles = 123456.5;
    row.result.flit_hops = 99;
    row.result.all_completed = false;
    row.seconds = 0.125;
    const std::string line = worker_row_line(17, row);
    EXPECT_EQ(line.find('\n'), std::string::npos) << "NDJSON lines are one line";
    const IndexedRow back = worker_row_from_line(line);
    EXPECT_EQ(back.index, 17u);
    EXPECT_EQ(back.row, row);
}

TEST(ShardProtocol, RowLineRejectsMalformedEnvelopes) {
    for (const char* bad : {
             "",                                  // empty
             "{",                                 // truncated
             "[1, 2]",                            // not an object
             "{\"index\": 1}",                    // missing row
             "{\"row\": {}}",                     // missing index
             "{\"index\": -1, \"row\": {}}",      // negative index
             "{\"index\": 1, \"row\": 3}",        // row not an object
             "{\"index\": 1, \"row\": {}, \"extra\": 0}",  // unknown key
         })
        EXPECT_THROW((void)worker_row_from_line(bad), std::invalid_argument) << bad;
}

TEST(ShardProtocol, PointsFromTextRejectsEmptyAndMalformed) {
    EXPECT_THROW((void)points_from_text("[]", "t"), std::invalid_argument);
    EXPECT_THROW((void)points_from_text("", "t"), std::invalid_argument);
    EXPECT_THROW((void)points_from_text("{}", "t"), std::invalid_argument);
    EXPECT_THROW((void)points_from_text("[{\"arch\": \"torus\"}]", "t"),
                 std::invalid_argument);
    const auto points = points_from_text(
        util::json_serialize(to_json(tiny_spec().expand())), "t");
    EXPECT_EQ(points, tiny_spec().expand());
}

// ---------------------------------------------------------- heartbeats

TEST(ShardHeartbeat, LineRoundTripsThroughStreamParser) {
    Heartbeat hb;
    hb.shard = 2;
    hb.n_shards = 4;
    hb.done = 3;
    hb.total = 9;
    hb.seconds = 1.5;
    const StreamLine parsed = stream_line_from(heartbeat_line(hb));
    ASSERT_TRUE(parsed.hb.has_value());
    EXPECT_FALSE(parsed.row.has_value());
    EXPECT_EQ(*parsed.hb, hb);
}

TEST(ShardHeartbeat, StreamParserStillAcceptsRowLines) {
    const auto points = tiny_spec().expand();
    core::SweepEngine engine(1);
    const auto rows = engine.run(points);
    const StreamLine parsed =
        stream_line_from(worker_row_line(0, rows.rows[0]));
    ASSERT_TRUE(parsed.row.has_value());
    EXPECT_FALSE(parsed.hb.has_value());
    EXPECT_EQ(parsed.row->index, 0u);
}

// ---------------------------------------------------------- executor seam

TEST(StreamExecutor, EngineRunDispatchesThroughTheStreamExecutor) {
    const auto spec = tiny_spec();
    core::SweepEngine plain(1);
    const auto expect = plain.run(spec);

    core::SweepEngine engine(1);
    std::size_t calls = 0;
    // A stand-in transport: evaluate the handed points on a second engine,
    // exactly what the fleet executor does across processes.
    engine.set_stream_executor(
        [&](const std::vector<core::SweepPoint>& points)
            -> std::unique_ptr<core::RowStream> {
            ++calls;
            core::SweepEngine inner(2);
            return std::make_unique<core::VectorRowStream>(
                inner.run(points).rows);
        });
    const auto got = engine.run(spec);
    EXPECT_EQ(calls, 1u);
    ASSERT_EQ(got.rows.size(), expect.rows.size());
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].point, expect.rows[i].point);
        EXPECT_EQ(got.rows[i].result, expect.rows[i].result);
    }
    // The executor never touched the coordinator-side cache.
    EXPECT_EQ(engine.cache().misses(), 0);
    // Grid dimensions still index correctly through at().
    EXPECT_EQ(got.at(1, 0, 0).result, expect.at(1, 0, 0).result);
}

TEST(StreamExecutor, ShortRowStreamIsAnError) {
    core::SweepEngine engine(1);
    engine.set_stream_executor(
        [](const std::vector<core::SweepPoint>&)
            -> std::unique_ptr<core::RowStream> {
            return std::make_unique<core::VectorRowStream>(
                std::vector<core::SweepRow>{});
        });
    EXPECT_THROW((void)engine.run(tiny_spec()), std::runtime_error);
}

// ------------------------------------------------------- streaming merge

/// Self-deleting scratch directory for row-file tests.
struct TempDir {
    std::string path;
    TempDir() {
        std::string templ =
            (std::filesystem::temp_directory_path() / "floretsim-mergetest-XXXXXX")
                .string();
        if (!mkdtemp(templ.data())) throw std::runtime_error("mkdtemp failed");
        path = templ;
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

/// A synthetic row whose identity is readable back out of total_cycles.
core::SweepRow tagged_row(std::size_t i) {
    core::SweepRow row;
    row.point = tiny_spec().expand().front();
    row.result.total_cycles = 1000.0 + static_cast<double>(i);
    return row;
}

/// Writes one NDJSON row file: the given global indices in the given
/// (arbitrary) order, a heartbeat line interleaved after each row — the
/// row and heartbeat envelopes the fleet coordinator's row file holds.
std::string write_row_file(const std::string& dir, const std::string& name,
                           const std::vector<std::size_t>& indices) {
    const std::string path = dir + "/" + name + ".ndjson";
    std::ofstream f(path);
    Heartbeat hb;
    hb.total = indices.size();
    for (const auto i : indices) {
        f << worker_row_line(i, tagged_row(i)) << '\n';
        hb.done += 1;
        f << heartbeat_line(hb) << '\n';
    }
    return path;
}

TEST(MergedStream, YieldsPointOrderHoldingOneRowAtATime) {
    TempDir tmp;
    // 6 points in completion (not point) order, with heartbeat envelopes
    // interleaved.
    const auto rows = write_row_file(tmp.path, "rows", {4, 0, 2, 5, 3, 1});
    MergedRowFileStream stream(rows, 6);
    EXPECT_EQ(stream.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        const auto row = stream.next();
        ASSERT_TRUE(row.has_value()) << i;
        EXPECT_EQ(row->result.total_cycles, 1000.0 + static_cast<double>(i));
    }
    EXPECT_FALSE(stream.next().has_value());
    // The merge never materializes the row set: one parsed row resident,
    // regardless of row count — the constant-memory coordinator contract.
    EXPECT_EQ(stream.peak_resident_rows(), 1u);
}

TEST(MergedStream, ReleasesItsCleanupOwnerOnDestruction) {
    TempDir tmp;
    const auto rows = write_row_file(tmp.path, "rows", {0, 1});
    bool released = false;
    {
        auto guard = std::shared_ptr<void>(
            nullptr, [&released](void*) { released = true; });
        MergedRowFileStream stream(rows, 2, [guard] {});
        guard.reset();
        ASSERT_TRUE(stream.next().has_value());
        // Abandoned mid-iteration: the owner must still be released.
        EXPECT_FALSE(released);
    }
    EXPECT_TRUE(released);
}

TEST(MergedStream, RunsItsCleanupOnDestructionAndWhenConstructionFails) {
    // The fleet coordinator's cleanup deletes its scratch row and point
    // files; it must run, not merely be dropped.
    TempDir tmp;
    const auto rows = write_row_file(tmp.path, "rows", {0});
    {
        MergedRowFileStream stream(rows, 1, [rows] { std::filesystem::remove(rows); });
        EXPECT_TRUE(std::filesystem::exists(rows)) << "deleted while in use";
    }
    EXPECT_FALSE(std::filesystem::exists(rows));
    int runs = 0;
    EXPECT_THROW(
        MergedRowFileStream(tmp.path + "/missing.ndjson", 1, [&runs] { ++runs; }),
        std::runtime_error);
    EXPECT_EQ(runs, 1);
}

TEST(MergedStream, ReleasesItsCleanupOwnerWhenConstructionFails) {
    TempDir tmp;
    bool released = false;
    auto guard =
        std::shared_ptr<void>(nullptr, [&released](void*) { released = true; });
    EXPECT_THROW(MergedRowFileStream(
                     tmp.path + "/no-such-file.ndjson", 1,
                     [guard = std::move(guard)] {}),
                 std::runtime_error);
    EXPECT_TRUE(released) << "a failed merge leaked its scratch owner";
}

TEST(MergedStream, IndexScanRejectsBadRowFiles) {
    TempDir tmp;
    // Missing file.
    EXPECT_THROW(MergedRowFileStream(tmp.path + "/missing", 1),
                 std::runtime_error);
    // Duplicate point.
    const auto dup = write_row_file(tmp.path, "dup", {0, 0});
    EXPECT_THROW(MergedRowFileStream(dup, 2), std::runtime_error);
    // Out-of-range index.
    const auto range = write_row_file(tmp.path, "range", {7});
    EXPECT_THROW(MergedRowFileStream(range, 2), std::runtime_error);
    // A point no worker covered; the error names the row file.
    const auto gap = write_row_file(tmp.path, "gap", {0});
    try {
        MergedRowFileStream stream(gap, 2);
        FAIL() << "missing point accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("no worker returned a row"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(gap), std::string::npos) << e.what();
    }
    // Unparseable line.
    const std::string garbled = tmp.path + "/garbled.ndjson";
    std::ofstream(garbled) << "{\"index\": 0, \"row\": \n";
    EXPECT_THROW(MergedRowFileStream(garbled, 1), std::runtime_error);
}

TEST(ShardExecutor, DescribeWaitStatusNamesExitsAndSignals) {
    // Wait statuses as waitpid/pclose encode them on Linux: exit code in
    // the high byte, terminating signal in the low 7 bits. The
    // signal-death path end to end (a worker really SIGKILLed, its death
    // surfaced with the signal name) is pinned by the fleet suite.
    EXPECT_EQ(describe_wait_status(0), "exited with status 0");
    EXPECT_EQ(describe_wait_status(3 << 8), "exited with status 3");
    EXPECT_EQ(describe_wait_status(127 << 8), "exited with status 127");
    EXPECT_EQ(describe_wait_status(9), "died on signal 9 (Killed)");
    EXPECT_EQ(describe_wait_status(15), "died on signal 15 (Terminated)");
}

}  // namespace
}  // namespace floretsim::scenario
