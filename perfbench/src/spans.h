#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace perfbench {

/// One timed interval. `parent` indexes the recorder's span list (-1: a
/// root, or a span recorded without a parent that attach_by_containment
/// will place). `own` marks spans the benchmark opened itself, as opposed
/// to the library's obs::Tracer spans folded in after the fact.
struct SpanRec {
    std::string name;
    std::string cat;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    bool own = true;
    /// Host-speed factor (nominal / measured kernel time) of the op the
    /// span belongs to or precedes; 1 when unknown.
    double speed = 1.0;
};

/// In-memory span recorder: spans nest by an open stack, stay in memory,
/// and are exported as Chrome trace-event JSON when the run ends.
class SpanRecorder {
public:
    [[nodiscard]] static std::int64_t now_ns();

    /// Opens a span under the innermost open span; returns its id.
    std::int32_t open(std::string name, std::string cat);
    void close(std::int32_t id);
    /// Records a finished span with no parent (placed later by
    /// attach_by_containment).
    void add_foreign(std::string name, std::string cat, std::int64_t start_ns,
                     std::int64_t end_ns);
    /// Sets the speed factor of every span from index `first` on.
    void set_speed_from(std::size_t first, double speed);

    [[nodiscard]] std::vector<SpanRec>& spans() { return spans_; }
    [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

private:
    std::vector<SpanRec> spans_;
    std::vector<std::int32_t> stack_;
};

/// RAII span on a recorder; a null recorder makes it free.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* rec, const char* name, const char* cat)
        : rec_(rec), id_(rec ? rec->open(name, cat) : -1) {}
    ~ScopedSpan() {
        if (rec_) rec_->close(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder* rec_;
    std::int32_t id_;
};

/// Gives every parentless span the innermost span whose interval contains
/// it. Library spans carry microsecond timestamps, so containment allows
/// `tolerance_ns` of slack at both ends, and the benchmark's own spans
/// sort as if they started `tolerance_ns` earlier: a library span that
/// begins within the same microsecond as an op nests inside the op.
void attach_by_containment(std::vector<SpanRec>& spans, std::int64_t tolerance_ns);

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the span), in nanoseconds.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<SpanRec>& spans);

struct LayerTotals {
    std::int64_t calls = 0;
    double total_s = 0.0;  ///< Speed-corrected summed duration.
    double self_s = 0.0;   ///< Speed-corrected summed self time.
};

/// Per-name totals over every span, durations scaled by each span's speed.
[[nodiscard]] std::map<std::string, LayerTotals> rollup(const std::vector<SpanRec>& spans);

/// {"traceEvents": [...]} with one complete ("X") event per span;
/// the benchmark's spans on tid 1, the library's on tid 2.
[[nodiscard]] floretsim::util::Json chrome_trace(const std::vector<SpanRec>& spans);

}  // namespace perfbench
