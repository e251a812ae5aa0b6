#include "src/scenario/shard.h"

#include <signal.h>
#include <string.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/spec_json.h"
#include "src/util/json.h"

namespace floretsim::scenario {

// ---- Process-coordination helpers ------------------------------------------

void ensure_sigpipe_ignored() {
    static const bool installed = [] {
        struct sigaction sa {};
        if (sigaction(SIGPIPE, nullptr, &sa) == 0 && sa.sa_handler == SIG_DFL) {
            sa.sa_handler = SIG_IGN;
            sigemptyset(&sa.sa_mask);
            sa.sa_flags = 0;
            (void)sigaction(SIGPIPE, &sa, nullptr);
        }
        return true;
    }();
    (void)installed;
}

std::string describe_wait_status(int status) {
    if (WIFEXITED(status))
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char* name = strsignal(sig);
        return "died on signal " + std::to_string(sig) + " (" +
               (name ? name : "unknown") + ")";
    }
    return "stopped with wait status " + std::to_string(status);
}

void absorb_worker_obs(const std::string& trace_path,
                       const std::string& metrics_path, std::int32_t worker,
                       std::ostream* warn) {
    const auto read_all = [](const std::string& path,
                             std::string& out) -> bool {
        std::ifstream f(path);
        if (!f) return false;
        std::ostringstream ss;
        ss << f.rdbuf();
        out = ss.str();
        return true;
    };
    const auto complain = [&](const char* what, const std::string& detail) {
        if (warn)
            *warn << "worker " << worker << ": cannot absorb worker " << what
                  << " (" << detail << "); sweep results are unaffected\n";
    };
    if (!trace_path.empty()) {
        std::string text;
        if (!read_all(trace_path, text)) {
            complain("trace", "file unreadable");
        } else {
            try {
                obs::Tracer::global().absorb(util::json_parse(text));
            } catch (const std::exception& e) {
                complain("trace", e.what());
            }
        }
    }
    if (!metrics_path.empty()) {
        std::string text;
        if (!read_all(metrics_path, text)) {
            complain("metrics", "file unreadable");
        } else {
            try {
                obs::MetricsRegistry::global().absorb(util::json_parse(text));
            } catch (const std::exception& e) {
                complain("metrics", e.what());
            }
        }
    }
}

std::string self_exe_path(const char* argv0) {
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec && !exe.empty()) return exe.string();
    return argv0 ? argv0 : "floretsim_run";
}

std::int32_t clamp_worker_threads(std::int32_t requested, std::ostream& err) {
    if (requested < 0)
        throw std::invalid_argument("--threads must be >= 0, got " +
                                    std::to_string(requested));
    if (requested > kMaxWorkerThreads) {
        err << "worker: clamping --threads " << requested << " to "
            << kMaxWorkerThreads << " (worker thread cap)\n";
        return kMaxWorkerThreads;
    }
    return requested;  // 0: hardware concurrency
}

// ---- The worker protocol ----------------------------------------------------

std::vector<core::SweepPoint> points_from_text(std::string_view text,
                                               const std::string& context) {
    util::Json doc;
    try {
        doc = util::json_parse(text);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(context + ": " + e.what());
    }
    std::vector<core::SweepPoint> points;
    try {
        points = sweep_points_from_json(doc);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(context + ": " + e.what());
    }
    if (points.empty())
        throw std::invalid_argument(context +
                                    ": point list is empty — a worker with no "
                                    "work is a coordinator bug");
    return points;
}

std::string worker_row_line(std::size_t index, const core::SweepRow& row) {
    util::Json j = util::Json::object();
    j.set("index", static_cast<std::uint64_t>(index));
    j.set("row", to_json(row));
    return util::json_serialize_compact(j);
}

namespace {

IndexedRow indexed_row_from_json(const util::Json& j) {
    for (const auto& [key, value] : j.as_object()) {
        (void)value;
        if (key != "index" && key != "row")
            throw std::invalid_argument("row line: unknown key \"" + key + "\"");
    }
    const util::Json* index = j.find("index");
    const util::Json* row = j.find("row");
    if (!index || !row)
        throw std::invalid_argument("row line: need both \"index\" and \"row\"");
    IndexedRow out;
    out.index = static_cast<std::size_t>(index->as_uint());
    out.row = sweep_row_from_json(*row);
    return out;
}

Heartbeat heartbeat_from_json(const util::Json& j) {
    if (j.kind() != util::Json::Kind::kObject)
        throw std::invalid_argument("hb line: \"hb\" must be an object");
    for (const auto& [key, value] : j.as_object()) {
        (void)value;
        if (key != "shard" && key != "n_shards" && key != "done" &&
            key != "total" && key != "seconds")
            throw std::invalid_argument("hb line: unknown key \"" + key + "\"");
    }
    const util::Json* shard = j.find("shard");
    const util::Json* n_shards = j.find("n_shards");
    const util::Json* done = j.find("done");
    const util::Json* total = j.find("total");
    const util::Json* seconds = j.find("seconds");
    if (!shard || !n_shards || !done || !total || !seconds)
        throw std::invalid_argument(
            "hb line: need shard, n_shards, done, total, and seconds");
    Heartbeat hb;
    hb.shard = static_cast<std::int32_t>(shard->as_int());
    hb.n_shards = static_cast<std::int32_t>(n_shards->as_int());
    if (hb.n_shards < 1 || hb.shard < 0 || hb.shard >= hb.n_shards)
        throw std::invalid_argument("hb line: shard " + std::to_string(hb.shard) +
                                    "/" + std::to_string(hb.n_shards) +
                                    " out of range");
    hb.done = done->as_uint();
    hb.total = total->as_uint();
    if (hb.done > hb.total)
        throw std::invalid_argument("hb line: done " + std::to_string(hb.done) +
                                    " exceeds total " + std::to_string(hb.total));
    hb.seconds = seconds->as_double();
    if (!std::isfinite(hb.seconds) || hb.seconds < 0.0)
        throw std::invalid_argument("hb line: seconds must be finite and >= 0");
    return hb;
}

}  // namespace

IndexedRow worker_row_from_line(std::string_view line) {
    util::Json j;
    try {
        j = util::json_parse(line);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("row line: ") + e.what());
    }
    if (j.kind() != util::Json::Kind::kObject)
        throw std::invalid_argument("row line: expected an object, got " +
                                    std::string(j.kind_name()));
    return indexed_row_from_json(j);
}

std::string heartbeat_line(const Heartbeat& hb) {
    util::Json inner = util::Json::object();
    inner.set("shard", hb.shard);
    inner.set("n_shards", hb.n_shards);
    inner.set("done", hb.done);
    inner.set("total", hb.total);
    inner.set("seconds", hb.seconds);
    util::Json j = util::Json::object();
    j.set("hb", std::move(inner));
    return util::json_serialize_compact(j);
}

StreamLine stream_line_from(std::string_view line) {
    util::Json j;
    try {
        j = util::json_parse(line);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("stream line: ") + e.what());
    }
    if (j.kind() != util::Json::Kind::kObject)
        throw std::invalid_argument("stream line: expected an object, got " +
                                    std::string(j.kind_name()));
    StreamLine out;
    if (const util::Json* hb = j.find("hb")) {
        if (j.as_object().size() != 1)
            throw std::invalid_argument(
                "hb line: \"hb\" must be the only top-level key");
        out.hb = heartbeat_from_json(*hb);
        return out;
    }
    out.row = indexed_row_from_json(j);
    return out;
}

// ---- The streaming row merge ------------------------------------------------

MergedRowFileStream::MergedRowFileStream(std::string row_path, std::size_t n_points,
                                         std::function<void()> cleanup)
    : cleanup_(std::move(cleanup)), row_path_(std::move(row_path)), file_(row_path_) {
    if (!file_) throw std::runtime_error(row_path_ + ": row file missing");
    offsets_.assign(n_points, 0);
    std::vector<char> seen(n_points, 0);
    // One indexing pass: record where every point's row starts, so next()
    // can seek straight to it. Rows land in completion order — the
    // offsets are what turn that back into point order without holding
    // any parsed row.
    std::string line;
    std::uint64_t offset = 0;
    while (std::getline(file_, line)) {
        const std::uint64_t line_start = offset;
        offset += line.size() + 1;  // +1: the '\n' getline consumed
        std::string_view text(line);
        while (!text.empty() && text.back() == '\r') text.remove_suffix(1);
        if (text.empty()) continue;
        try {
            // Index-only parse: pull out the point index, defer the
            // (allocation-heavy) row conversion to next(). Heartbeat
            // envelopes share the stream protocol and are skipped.
            const util::Json j = util::json_parse(text);
            if (j.kind() != util::Json::Kind::kObject)
                throw std::invalid_argument("row line: expected an object, got " +
                                            std::string(j.kind_name()));
            if (j.find("hb")) {
                (void)stream_line_from(text);  // strict heartbeat check
                continue;
            }
            for (const auto& [key, value] : j.as_object()) {
                (void)value;
                if (key != "index" && key != "row")
                    throw std::invalid_argument("row line: unknown key \"" + key +
                                                "\"");
            }
            const util::Json* index = j.find("index");
            if (!index || !j.find("row"))
                throw std::invalid_argument("row line: need both \"index\" and \"row\"");
            const std::size_t i = static_cast<std::size_t>(index->as_uint());
            if (i >= n_points)
                throw std::invalid_argument("row index " + std::to_string(i) +
                                            " out of range for " +
                                            std::to_string(n_points) + " points");
            if (seen[i])
                throw std::invalid_argument("duplicate row for point " +
                                            std::to_string(i));
            seen[i] = 1;
            offsets_[i] = line_start;
        } catch (const std::invalid_argument& e) {
            throw std::runtime_error(row_path_ + ": " + e.what());
        }
    }
    file_.clear();  // getline hit EOF; next() seeks on this same stream
    for (std::size_t i = 0; i < seen.size(); ++i)
        if (!seen[i])
            throw std::runtime_error(row_path_ + ": no worker returned a row for point " +
                                     std::to_string(i));
}

std::optional<core::SweepRow> MergedRowFileStream::next() {
    if (pos_ >= offsets_.size()) return std::nullopt;
    file_.clear();
    file_.seekg(static_cast<std::streamoff>(offsets_[pos_]));
    std::string line;
    if (!std::getline(file_, line))
        throw std::runtime_error(row_path_ + ": row file shrank under point " +
                                 std::to_string(pos_));
    try {
        // Exactly one parsed row resident at a time — the streaming-merge
        // memory contract (see peak_resident_rows).
        peak_resident_ = std::max<std::size_t>(peak_resident_, 1);
        IndexedRow r = worker_row_from_line(line);
        if (r.index != pos_)
            throw std::invalid_argument("row index changed from " +
                                        std::to_string(pos_) + " to " +
                                        std::to_string(r.index) +
                                        " between indexing and read");
        ++pos_;
        obs::MetricsRegistry::global().add("shard.rows_merged");
        return std::move(r.row);
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(row_path_ + ": " + e.what());
    }
}

}  // namespace floretsim::scenario
