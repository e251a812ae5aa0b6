#include "src/spans.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int32_t SpanRecorder::open(std::string name, std::string cat) {
    SpanRec s;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void SpanRecorder::close(std::int32_t id) {
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(static_cast<std::size_t>(id)).name);
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
}

void SpanRecorder::add_foreign(std::string name, std::string cat,
                               std::int64_t start_ns, std::int64_t end_ns) {
    SpanRec s;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.own = false;
    spans_.push_back(std::move(s));
}

void SpanRecorder::set_speed_from(std::size_t first, double speed) {
    for (std::size_t i = first; i < spans_.size(); ++i) spans_[i].speed = speed;
}

void attach_by_containment(std::vector<SpanRec>& spans, std::int64_t tolerance_ns) {
    const auto key = [&](const SpanRec& s) {
        return s.start_ns - (s.own ? tolerance_ns : 0);
    };
    std::vector<std::int32_t> order(spans.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
        const auto& sa = spans[static_cast<std::size_t>(a)];
        const auto& sb = spans[static_cast<std::size_t>(b)];
        if (key(sa) != key(sb)) return key(sa) < key(sb);
        return sa.end_ns > sb.end_ns;
    });
    const auto contains = [&](const SpanRec& outer, const SpanRec& inner) {
        return inner.start_ns >= outer.start_ns - tolerance_ns &&
               inner.end_ns <= outer.end_ns + tolerance_ns;
    };
    std::vector<std::int32_t> stack;
    for (const auto i : order) {
        auto& s = spans[static_cast<std::size_t>(i)];
        while (!stack.empty() &&
               !contains(spans[static_cast<std::size_t>(stack.back())], s))
            stack.pop_back();
        if (s.parent < 0 && !stack.empty()) s.parent = stack.back();
        stack.push_back(i);
    }
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRec>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
    for (const auto& s : spans)
        if (s.parent >= 0) {
            const auto& p = spans[static_cast<std::size_t>(s.parent)];
            const auto lo = std::max(s.start_ns, p.start_ns);
            const auto hi = std::min(s.end_ns, p.end_ns);
            if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
        }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return self;
}

std::map<std::string, LayerTotals> rollup(const std::vector<SpanRec>& spans) {
    const auto self = self_times_ns(spans);
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& t = out[spans[i].name];
        ++t.calls;
        t.total_s += 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                     spans[i].speed;
        t.self_s += 1e-9 * static_cast<double>(self[i]) * spans[i].speed;
    }
    return out;
}

floretsim::util::Json chrome_trace(const std::vector<SpanRec>& spans) {
    using floretsim::util::Json;
    Json events = Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", s.cat);
        e.set("ph", "X");
        e.set("ts", 1e-3 * static_cast<double>(s.start_ns));
        e.set("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
        e.set("pid", std::int64_t{1});
        e.set("tid", std::int64_t{s.own ? 1 : 2});
        Json args = Json::object();
        args.set("id", static_cast<std::int64_t>(i));
        args.set("parent", static_cast<std::int64_t>(s.parent));
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    return doc;
}

}  // namespace perfbench
