#include "src/noc/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace floretsim::noc {
namespace {

using topo::LinkId;
using topo::NodeId;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

struct Packet {
    std::int32_t id = -1;
    NodeId src = -1;
    NodeId dst = -1;
    std::int32_t flits = 0;
    std::int64_t inject_cycle = 0;
    const std::vector<NodeId>* path = nullptr;
};

struct Flit {
    std::int32_t packet = -1;
    std::int32_t hop = 0;  ///< Index into the packet path of the current node.
    bool head = false;
    bool tail = false;
};

/// One directed channel (half of a bidirectional link) with its pipeline
/// and the input FIFO at its downstream router.
struct Channel {
    NodeId from = -1;
    NodeId to = -1;
    LinkId link = -1;
    std::int32_t delay = 1;
    std::int32_t credits = 0;                        ///< Space left downstream.
    std::deque<std::pair<Flit, std::int64_t>> pipe;  ///< (flit, arrival cycle).
    std::deque<Flit> fifo;                           ///< Downstream input buffer.
};

/// One locality unit of the regional core: a set of routers, the channels
/// whose FIFOs they host (in_ch), and an independent local clock. The
/// single-clock cores are the one-region special case — one region
/// spanning the fabric, always awake while it steps.
struct Region {
    std::vector<std::int32_t> nodes;  ///< Member routers, ascending.
    std::vector<std::int32_t> in_ch;  ///< Channels with `to` here, ascending.
    std::int64_t next = 0;     ///< Earliest cycle this region must execute.
    std::int64_t stepped = 0;  ///< Cycles this region participated in.
    std::int64_t jumps = 0;    ///< Sleep transitions skipping >= 1 cycle.
};

/// Head-flit request table entries: what a source FIFO's head flit asks of
/// the switch this cycle. Non-negative values are output channel indices.
constexpr std::int32_t kRequestNone = -2;   ///< Source FIFO is empty.
constexpr std::int32_t kRequestEject = -1;  ///< Head flit is at its destination.

/// A set of channel indices stored as a bitset, visited in ascending index
/// order — the reference core's channel order — at a cost proportional to
/// the set's words plus its members rather than to every channel.
class ChannelSet {
public:
    void resize(const std::size_t n) { words_.assign((n + 63) / 64, 0); }
    void set(const std::size_t i) { words_[i >> 6] |= bit(i); }
    void reset(const std::size_t i) { words_[i >> 6] &= ~bit(i); }

    /// Calls fn(i) for every member in ascending order. fn may remove the
    /// member it is handed; the members of each word are read up front.
    template <class Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t m = words_[w]; m != 0; m &= m - 1)
                fn((w << 6) | static_cast<std::size_t>(std::countr_zero(m)));
    }

    /// Removes the members in ascending order, calling fn(i) on each. fn
    /// may add members above i, which are visited in turn; the set is
    /// empty on return.
    template <class Fn>
    void drain(Fn&& fn) {
        for (std::size_t w = 0; w < words_.size(); ++w)
            while (words_[w] != 0) {
                const auto b = static_cast<std::size_t>(std::countr_zero(words_[w]));
                words_[w] &= words_[w] - 1;
                fn((w << 6) | b);
            }
    }

private:
    static std::uint64_t bit(const std::size_t i) { return std::uint64_t{1} << (i & 63); }
    std::vector<std::uint64_t> words_;
};

/// Process-wide core override, parsed once: lets CI, the --core CLI flags
/// (which set the variable before first use) and ad-hoc debugging force
/// every simulation onto one engine without touching configs.
std::optional<SimCore> core_env_override() {
    static const std::optional<SimCore> parsed = []() -> std::optional<SimCore> {
        const char* s = std::getenv("FLORETSIM_SIM_CORE");
        if (s == nullptr || *s == '\0') return std::nullopt;
        const auto core = sim_core_from_name(s);
        if (!core) {
            std::fprintf(stderr,
                         "floretsim: ignoring unknown FLORETSIM_SIM_CORE='%s' "
                         "(expected 'reference', 'event-horizon' or 'regional')\n",
                         s);
        }
        return core;
    }();
    return parsed;
}

/// One simulation run, structured around regions with independent local
/// clocks (`Region::next` = the earliest cycle the region must execute).
/// Per global cycle the engine runs the reference phases — inject, deliver,
/// eject, allocate — but only over *awake* regions (next <= now); when no
/// region is due, the global clock jumps to the earliest regional wake-up.
///
/// Each phase visits only the channels that can act, kept in three
/// channel sets: pipe-busy (a flit in the link pipeline), FIFO-occupied
/// (a flit in the downstream input buffer) and requested-output (some
/// participating head flit asks for the output this cycle). Deliver scans
/// pipe-busy; eject and the request refresh scan FIFO-occupied; allocation
/// drains requested-output. An empty FIFO always carries kRequestNone, so
/// skipping it loses no request, and allocate_output on an output no head
/// flit requests returns false with no side effect, so skipping it loses
/// no allocation.
///
/// Bit-identicality with the reference loop rests on two ordering rules and
/// one fixed-point theorem:
///
///   - Ejection and allocation visit the awake regions' channels in
///     ascending global channel index — the reference core's exact order.
///     Ejection order fixes the floating-point accumulation order of
///     packet_latency; allocation order fixes the same-cycle credit/drain
///     coupling between channels of one cycle.
///
///   - The PR-3 fixed point, localized: a cycle in which a region ejected
///     nothing, allocated nothing, and received no credit from another
///     region leaves its credits, locks, round-robin pointers and FIFOs
///     unchanged — all of them mutate only through the region's own
///     ejection/allocation or a cross-region credit return. Its next
///     possible change is its earliest local pipe arrival or injection, so
///     its clock jumps there. verify_quiet() cross-checks the local proof
///     in debug builds: every waiting head flit in the region must be
///     blocked on a zero-credit output or a foreign wormhole lock.
///
///   - Cross-region events wake sleepers exactly when the reference core
///     would let them act. A flit allocated onto a cut channel bounds the
///     destination region's clock by its arrival cycle (lookahead = the
///     channel delay >= 1). A credit returned to a sleeping region's
///     output channel has *zero* lookahead — the reference allocator could
///     use it later in the same cycle — so the owner is woken within the
///     cycle for the allocation phase only: a credit returned by ejection
///     adds all of the sleeper's requested outputs to the scan (ejection
///     precedes all allocation), and a credit returned by a drain mid-scan
///     adds only those past the draining channel's index — precisely the
///     outputs the reference core would still visit with that credit
///     available. A credit-touched region never proves quietness that
///     cycle (the stale request table cannot see what the credit unblocks);
///     it stays awake one more cycle instead — conservative, never wrong.
class Engine {
public:
    Engine(const topo::Topology& topo, const RouteTable& routes, const SimConfig& cfg,
           const std::vector<Demand>& demands)
        : cfg_(cfg),
          horizon_(cfg.core != SimCore::kReference),
          n_nodes_(static_cast<std::size_t>(topo.node_count())) {
        // --- Directed channels: 2 per link, indexed from both endpoints.
        channels_.reserve(topo.links().size() * 2);
        in_channels_.resize(n_nodes_);
        out_channels_.resize(n_nodes_);
        for (const auto& l : topo.links()) {
            const auto delay = std::max<std::int32_t>(
                1, static_cast<std::int32_t>(std::lround(l.length_mm / cfg_.mm_per_cycle))) +
                               cfg_.router_delay_cycles;
            for (const auto& [from, to] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
                Channel c;
                c.from = from;
                c.to = to;
                c.link = l.id;
                c.delay = delay;
                c.credits = cfg_.input_buffer_flits;
                const auto idx = static_cast<std::int32_t>(channels_.size());
                channels_.push_back(std::move(c));
                in_channels_[static_cast<std::size_t>(to)].push_back(idx);
                out_channels_[static_cast<std::size_t>(from)].push_back(idx);
            }
        }

        // --- Packetize demands and build per-node injection schedules.
        for (const auto& d : demands) {
            const auto total_flits = std::max<std::int64_t>(
                1, (d.bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes);
            std::int64_t remaining = total_flits;
            while (remaining > 0) {
                const auto take = static_cast<std::int32_t>(
                    std::min<std::int64_t>(remaining, cfg_.max_packet_flits));
                Packet p;
                p.id = static_cast<std::int32_t>(packets_.size());
                p.src = d.src;
                p.dst = d.dst;
                p.flits = take;
                p.path = &routes.route(d.src, d.dst);
                if (p.path->size() < 2)
                    throw std::logic_error("no route for demand " + std::to_string(d.src) +
                                           "->" + std::to_string(d.dst));
                packets_.push_back(p);
                remaining -= take;
            }
        }

        // Round-robin interleave packets of each source across the
        // injection window implied by the configured injection rate.
        per_src_.resize(n_nodes_);
        for (const auto& p : packets_)
            per_src_[static_cast<std::size_t>(p.src)].push_back(p.id);
        for (std::size_t n = 0; n < n_nodes_; ++n) {
            const double rate = std::max(1e-9, cfg_.injection_rate);
            double cursor = 0.0;
            for (const auto pid : per_src_[n]) {
                auto& p = packets_[static_cast<std::size_t>(pid)];
                p.inject_cycle = static_cast<std::int64_t>(cursor);
                cursor += static_cast<double>(p.flits) / rate;
            }
            std::sort(per_src_[n].begin(), per_src_[n].end(),
                      [&](std::int32_t a, std::int32_t b) {
                          return packets_[static_cast<std::size_t>(a)].inject_cycle <
                                 packets_[static_cast<std::size_t>(b)].inject_cycle;
                      });
        }
        inj_cursor_.assign(n_nodes_, 0);
        inj_fifo_.resize(n_nodes_);

        // --- Arbiter and scratch state.
        lock_.assign(channels_.size(), -1);
        rr_.assign(channels_.size(), 0);
        inj_request_.assign(n_nodes_, kRequestNone);
        ch_request_.assign(channels_.size(), kRequestNone);
        channel_drained_.assign(channels_.size(), 0);
        inj_drained_.assign(n_nodes_, 0);

        // --- Regions: the regional core partitions via topo::make_region_map;
        // the single-clock cores use one region spanning the fabric, which
        // reproduces their legacy iteration order and accounting exactly.
        std::vector<std::int32_t> node_region(n_nodes_, 0);
        std::int32_t n_regions = 1;
        if (cfg_.core == SimCore::kRegional && n_nodes_ > 0) {
            const auto rm = topo::make_region_map(topo, cfg_.regions);
            if (rm.count > 0) {
                node_region = rm.region_of;
                n_regions = rm.count;
            }
        }
        regions_.resize(static_cast<std::size_t>(n_regions));
        for (std::size_t n = 0; n < n_nodes_; ++n)
            regions_[static_cast<std::size_t>(node_region[n])].nodes.push_back(
                static_cast<std::int32_t>(n));
        ch_from_region_.resize(channels_.size());
        ch_to_region_.resize(channels_.size());
        for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
            const auto fr = node_region[static_cast<std::size_t>(channels_[ci].from)];
            const auto tr = node_region[static_cast<std::size_t>(channels_[ci].to)];
            ch_from_region_[ci] = fr;
            ch_to_region_[ci] = tr;
            regions_[static_cast<std::size_t>(tr)].in_ch.push_back(
                static_cast<std::int32_t>(ci));
        }
        for (auto& r : regions_) r.next = region_next_injection(r);
        pipe_busy_.resize(channels_.size());
        fifo_occupied_.resize(channels_.size());
        requested_.resize(channels_.size());
        is_awake_.assign(regions_.size(), 0);
        in_alloc_.assign(regions_.size(), 0);
        region_active_.assign(regions_.size(), 0);
        credit_touched_.assign(regions_.size(), 0);
        awake_.reserve(regions_.size());
        alloc_extra_.reserve(regions_.size());

        res_.router_flits.assign(n_nodes_, 0);
        res_.link_flits.assign(topo.links().size(), 0);
        total_packets_ = static_cast<std::int64_t>(packets_.size());
    }

    SimResult run() {
        std::int64_t now = 0;
        while (delivered_packets_ < total_packets_ && now < cfg_.max_cycles) {
            awake_.clear();
            std::int64_t soonest = kNever;
            for (std::size_t r = 0; r < regions_.size(); ++r) {
                if (regions_[r].next <= now) {
                    is_awake_[r] = 1;
                    awake_.push_back(static_cast<std::int32_t>(r));
                } else {
                    soonest = std::min(soonest, regions_[r].next);
                }
            }
            if (awake_.empty()) {
                // Every region holds a proven fixed point past `now`: jump
                // the global clock to the earliest regional wake-up,
                // clamped to max_cycles so a capped run reports the same
                // cycle count as stepping to the cap would (soonest may be
                // kNever when every in-flight flit is wedged: the jump
                // then burns the remaining budget exactly like the
                // reference loop does).
                if (in_flight_flits_ == 0 && soonest == kNever)
                    break;  // nothing left anywhere
                const std::int64_t target = std::min(soonest, cfg_.max_cycles);
                res_.cycles_skipped += target - now;
                ++res_.horizon_jumps;
                now = target;
                continue;
            }
            step_awake(now);
            ++now;
            ++res_.cycles_stepped;
        }
        res_.cycles = now;
        res_.packets = delivered_packets_;
        res_.completed = delivered_packets_ == total_packets_;
        res_.regions = static_cast<std::int64_t>(regions_.size());
        res_.region_stepped_min = kNever;
        for (const auto& r : regions_) {
            res_.region_cycles_stepped += r.stepped;
            res_.region_cycles_skipped += res_.cycles - r.stepped;
            res_.region_horizon_jumps += r.jumps;
            res_.region_stepped_max = std::max(res_.region_stepped_max, r.stepped);
            res_.region_stepped_min = std::min(res_.region_stepped_min, r.stepped);
        }
        flush_metrics();
        return std::move(res_);
    }

private:
    /// One end-of-run flush into the process metrics registry: every
    /// value is a deterministic work quantity out of res_ (never wall
    /// clock), so snapshots stay bit-identical across thread counts. The
    /// per-phase flit counters split a run's movement into its three
    /// engine phases — inject (flits entering source FIFOs), allocate
    /// (hops won through switch allocation), eject (flits leaving the
    /// fabric) — the region counters expose how much of the fabric the
    /// kRegional core actually stepped vs slept, and the scan counter how
    /// many output channels the allocator visited.
    void flush_metrics() const {
        auto& m = obs::MetricsRegistry::global();
        if (!m.enabled()) return;
        m.add("sim.runs");
        m.add("sim.cycles", res_.cycles);
        m.add("sim.cycles_stepped", res_.cycles_stepped);
        m.add("sim.cycles_skipped", res_.cycles_skipped);
        m.add("sim.horizon_jumps", res_.horizon_jumps);
        m.add("sim.phase_inject_flits", injected_flits_);
        m.add("sim.phase_alloc_hops", res_.flit_hops);
        m.add("sim.phase_eject_flits", res_.flits);
        m.add("sim.region_cycles_stepped", res_.region_cycles_stepped);
        m.add("sim.region_cycles_skipped", res_.region_cycles_skipped);
        m.add("sim.region_horizon_jumps", res_.region_horizon_jumps);
        m.add("sim.outputs_allocated_scanned", outputs_scanned_);
        m.observe("sim.run_cycles", static_cast<double>(res_.cycles));
    }

    /// One cycle of the reference semantics over the awake regions.
    void step_awake(const std::int64_t now) {
        // 1. Injection: move due packets into their source FIFOs as flits,
        // then refresh those FIFOs' requests (nothing before allocation
        // changes them). A sleeping region never has a due injection: its
        // horizon is bounded by the earliest pending one.
        for (const auto r : awake_)
            for (const auto node : regions_[static_cast<std::size_t>(r)].nodes) {
                const auto n = static_cast<std::size_t>(node);
                inject_node(n, now);
                if (inj_fifo_[n].empty()) continue;
                inj_request_[n] = request_of(inj_fifo_[n]);
                if (inj_request_[n] >= 0)
                    requested_.set(static_cast<std::size_t>(inj_request_[n]));
            }

        // 2. Link pipelines: deliver arrived flits into downstream FIFOs.
        // A sleeping region never has a due arrival: the allocation that
        // launched the flit bounded this region's clock by its arrival.
        pipe_busy_.for_each([&](const std::size_t ci) {
            if (!is_awake_[static_cast<std::size_t>(ch_to_region_[ci])]) return;
            Channel& c = channels_[ci];
            while (!c.pipe.empty() && c.pipe.front().second <= now) {
                c.fifo.push_back(c.pipe.front().first);
                c.pipe.pop_front();
                fifo_occupied_.set(ci);
            }
            if (c.pipe.empty()) pipe_busy_.reset(ci);
        });

        // 3. Ejection in ascending global channel index (one flit per
        // input port per cycle), then the request refresh of what is left
        // in each FIFO. A sleeping region holds no ejectable head — its
        // quiet proof rules that out and its FIFOs have not changed since —
        // so skipping it drops no ejection and no latency sample, and its
        // requests are still valid for the same reason.
        eject_awake(now);

        // 4. Switch allocation over the requested outputs.
        allocate_awake(now);

        finish_cycle(now);
    }

    void inject_node(const std::size_t n, const std::int64_t now) {
        while (inj_cursor_[n] < per_src_[n].size()) {
            const auto pid = per_src_[n][inj_cursor_[n]];
            const auto& p = packets_[static_cast<std::size_t>(pid)];
            if (p.inject_cycle > now) break;
            for (std::int32_t f = 0; f < p.flits; ++f) {
                Flit fl;
                fl.packet = pid;
                fl.hop = 0;
                fl.head = (f == 0);
                fl.tail = (f == p.flits - 1);
                inj_fifo_[n].push_back(fl);
                ++in_flight_flits_;
                ++injected_flits_;
            }
            ++inj_cursor_[n];
        }
    }

    void eject_awake(const std::int64_t now) {
        fifo_occupied_.for_each([&](const std::size_t ci) {
            const auto r = ch_to_region_[ci];
            if (!is_awake_[static_cast<std::size_t>(r)]) return;
            try_eject(ci, r, now);
            if (channels_[ci].fifo.empty()) return;
            ch_request_[ci] = request_of(channels_[ci].fifo);
            if (ch_request_[ci] >= 0)
                requested_.set(static_cast<std::size_t>(ch_request_[ci]));
        });
    }

    /// Ejects the front flit of channel `ci` if it sits at its destination,
    /// returning credit upstream (possibly across a region cut).
    void try_eject(const std::size_t ci, const std::int32_t region,
                   const std::int64_t now) {
        Channel& c = channels_[ci];
        const Flit& f = c.fifo.front();
        const auto& p = packets_[static_cast<std::size_t>(f.packet)];
        if ((*p.path)[static_cast<std::size_t>(f.hop)] != p.dst) return;
        if (f.tail) {
            ++delivered_packets_;
            res_.packet_latency.add(static_cast<double>(now - p.inject_cycle));
        }
        ++res_.flits;
        --in_flight_flits_;
        c.fifo.pop_front();
        if (c.fifo.empty()) {
            fifo_occupied_.reset(ci);
            ch_request_[ci] = kRequestNone;
        }
        ++c.credits;
        region_active_[static_cast<std::size_t>(region)] = 1;
        // The freed slot is a credit for whoever allocates onto this
        // channel: its upstream region. Ejection precedes all allocation,
        // so a woken sleeper joins the scan with all its requests.
        wake_for_credit(ch_from_region_[ci], -1);
    }

    /// Marks `r` credit-touched and, if it is sleeping through this cycle,
    /// enrolls it in the allocation phase: its requested outputs past
    /// channel `after_ci` (-1 = all of them) join the scan. A sleeper's
    /// requests are still valid — its FIFOs have not changed since its
    /// last refresh — and the kRequest* sentinels never exceed -1.
    void wake_for_credit(const std::int32_t r, const std::int32_t after_ci) {
        const auto ri = static_cast<std::size_t>(r);
        credit_touched_[ri] = 1;
        if (is_awake_[ri] || in_alloc_[ri]) return;
        in_alloc_[ri] = 1;
        alloc_extra_.push_back(r);
        const auto add = [&](const std::int32_t req) {
            if (req > after_ci) requested_.set(static_cast<std::size_t>(req));
        };
        for (const auto node : regions_[ri].nodes)
            add(inj_request_[static_cast<std::size_t>(node)]);
        for (const auto ci : regions_[ri].in_ch)
            add(ch_request_[static_cast<std::size_t>(ci)]);
    }

    /// What the head flit of a non-empty FIFO asks of the switch. A request
    /// goes stale when an allocation drains its source but leaves flits
    /// behind; the allocator's one-flit-per-input-per-cycle guard keeps it
    /// unread until the next refresh.
    [[nodiscard]] std::int32_t request_of(const std::deque<Flit>& fifo) const {
        const Flit& f = fifo.front();
        const auto& p = packets_[static_cast<std::size_t>(f.packet)];
        const auto& path = *p.path;
        const auto pos = static_cast<std::size_t>(f.hop);
        if (path[pos] == p.dst) return kRequestEject;
        const NodeId next = path[pos + 1];
        for (const auto ci : out_channels_[static_cast<std::size_t>(path[pos])])
            if (channels_[static_cast<std::size_t>(ci)].to == next) return ci;
        assert(false && "route step without a matching channel");
        return kRequestNone;
    }

    /// Allocation over the requested outputs in ascending global channel
    /// index. The set may grow while the scan runs: a drain can return
    /// credit to a sleeper across a cut, whose requests past the draining
    /// channel then join — exactly the outputs the reference core would
    /// still visit with that credit available.
    void allocate_awake(const std::int64_t now) {
        requested_.drain([&](const std::size_t ci) {
            ++outputs_scanned_;
            if (allocate_output(ci, now))
                region_active_[static_cast<std::size_t>(ch_from_region_[ci])] = 1;
        });
        // Reset the one-flit-per-input guards we actually set — O(moved
        // flits), not O(channels): the whole-table std::fill the former
        // single-clock loop used would charge every region for one hot
        // region's cycle.
        for (const auto ci : drained_ch_scratch_)
            channel_drained_[static_cast<std::size_t>(ci)] = 0;
        for (const auto n : drained_inj_scratch_)
            inj_drained_[static_cast<std::size_t>(n)] = 0;
        drained_ch_scratch_.clear();
        drained_inj_scratch_.clear();
    }

    /// For one output channel pick one flit: wormhole continuation for
    /// locked outputs, round-robin arbitration over requesting head flits
    /// otherwise. `channel_drained_` / `inj_drained_` enforce one flit per
    /// input port per cycle across all outputs of a router.
    bool allocate_output(const std::size_t ci, const std::int64_t now) {
        Channel& out = channels_[ci];
        if (out.credits <= 0) return false;
        const auto node = static_cast<std::size_t>(out.from);
        const auto& ins = in_channels_[node];
        const auto n_sources = ins.size() + 1;
        const auto out_req = static_cast<std::int32_t>(ci);

        // Source 0 is the node's injection FIFO; source s >= 1 is the
        // FIFO of incoming channel ins[s - 1].
        auto fifo_of = [&](std::size_t s) -> std::deque<Flit>& {
            return s == 0 ? inj_fifo_[node]
                          : channels_[static_cast<std::size_t>(ins[s - 1])].fifo;
        };
        auto request_at = [&](std::size_t s) -> std::int32_t {
            return s == 0 ? inj_request_[node]
                          : ch_request_[static_cast<std::size_t>(ins[s - 1])];
        };
        auto source_free = [&](std::size_t s) -> bool {
            return s == 0 ? inj_drained_[node] == 0
                          : channel_drained_[static_cast<std::size_t>(ins[s - 1])] == 0;
        };

        std::int32_t chosen = -1;  // source index
        if (lock_[ci] >= 0) {
            // Wormhole continuation: only the owner packet may use the
            // output; find the source whose head flit belongs to it.
            for (std::size_t s = 0; s < n_sources; ++s) {
                if (!source_free(s) || request_at(s) != out_req) continue;
                if (fifo_of(s).front().packet != lock_[ci]) continue;
                chosen = static_cast<std::int32_t>(s);
                break;
            }
        } else {
            // New allocation: round-robin over head flits requesting us.
            for (std::size_t k = 0; k < n_sources; ++k) {
                const std::size_t s = (rr_[ci] + k) % n_sources;
                if (!source_free(s) || request_at(s) != out_req) continue;
                if (!fifo_of(s).front().head) continue;
                chosen = static_cast<std::int32_t>(s);
                rr_[ci] = static_cast<std::uint32_t>(s + 1);
                break;
            }
        }
        if (chosen < 0) return false;

        auto& fifo = fifo_of(static_cast<std::size_t>(chosen));
        Flit f = fifo.front();
        fifo.pop_front();
        if (chosen > 0) {
            // Credit back to the upstream channel we drained; its owning
            // region may be across the cut and asleep — wake it for the
            // remainder of this scan (channels past `ci` only).
            const auto up =
                static_cast<std::size_t>(ins[static_cast<std::size_t>(chosen) - 1]);
            if (fifo.empty()) {
                fifo_occupied_.reset(up);
                ch_request_[up] = kRequestNone;
            }
            ++channels_[up].credits;
            channel_drained_[up] = 1;
            drained_ch_scratch_.push_back(static_cast<std::int32_t>(up));
            wake_for_credit(ch_from_region_[up], static_cast<std::int32_t>(ci));
        } else {
            if (fifo.empty()) inj_request_[node] = kRequestNone;
            inj_drained_[node] = 1;
            drained_inj_scratch_.push_back(static_cast<std::int32_t>(node));
        }
        lock_[ci] = f.tail ? -1 : f.packet;
        --out.credits;
        ++f.hop;
        out.pipe.emplace_back(f, now + out.delay);
        pipe_busy_.set(ci);
        // The launched flit bounds the destination region's clock: the
        // cross-cut lookahead is the channel delay.
        Region& dest = regions_[static_cast<std::size_t>(ch_to_region_[ci])];
        dest.next = std::min(dest.next, now + out.delay);
        ++res_.router_flits[node];
        ++res_.link_flits[static_cast<std::size_t>(out.link)];
        ++res_.flit_hops;
        return true;
    }

    /// Sets every participating region's local clock for the cycles after
    /// `now`, then clears the per-cycle scratch flags.
    void finish_cycle(const std::int64_t now) {
        const auto decide = [&](const std::int32_t r) {
            const auto ri = static_cast<std::size_t>(r);
            Region& R = regions_[ri];
            ++R.stepped;
            std::int64_t next;
            if (in_flight_flits_ == 0) {
                // Global idle: only a future injection can start anything.
                // This fires even for an active region (its final ejection
                // just emptied the net), so no core ever steps a cycle the
                // reference loop's idle rule would have skipped.
                next = region_next_injection(R);
            } else if (!horizon_ || region_active_[ri] || credit_touched_[ri]) {
                // Reference semantics, a moved flit, or a same-cycle credit
                // whose effect the stale request table cannot bound: run
                // the next cycle.
                next = now + 1;
            } else {
                // Local fixed point: leap to the earliest local event.
#ifndef NDEBUG
                verify_quiet(R);
#endif
                next = region_horizon(ri);
            }
            if (next > now + 1 && next != kNever) ++R.jumps;
            R.next = next;
            is_awake_[ri] = 0;
            in_alloc_[ri] = 0;
            region_active_[ri] = 0;
            credit_touched_[ri] = 0;
        };
        for (const auto r : awake_) decide(r);
        for (const auto r : alloc_extra_) decide(r);
        alloc_extra_.clear();
    }

    /// Earliest cycle at which a packet of this region still waits to
    /// inject.
    [[nodiscard]] std::int64_t region_next_injection(const Region& R) const {
        std::int64_t next = kNever;
        for (const auto node : R.nodes) {
            const auto n = static_cast<std::size_t>(node);
            if (inj_cursor_[n] < per_src_[n].size()) {
                next = std::min(
                    next, packets_[static_cast<std::size_t>(per_src_[n][inj_cursor_[n]])]
                              .inject_cycle);
            }
        }
        return next;
    }

    /// Earliest local event of a quiet region: pending injection or
    /// link-pipe arrival into it. Arrival cycles within a channel are
    /// monotone (constant per-channel delay), so each pipe's front is its
    /// earliest and the scan is exact. Evaluated lazily — only when a
    /// quiet region goes to sleep — so the allocator hot path carries no
    /// event-queue bookkeeping.
    [[nodiscard]] std::int64_t region_horizon(const std::size_t ri) const {
        std::int64_t next = region_next_injection(regions_[ri]);
        pipe_busy_.for_each([&](const std::size_t ci) {
            if (static_cast<std::size_t>(ch_to_region_[ci]) == ri)
                next = std::min(next, channels_[ci].pipe.front().second);
        });
        return next;
    }

#ifndef NDEBUG
    /// Debug cross-check of the localized no-op proof: on a region's quiet
    /// cycle every waiting head flit in it must be blocked on a
    /// zero-credit output or on a wormhole lock owned by another packet (a
    /// body flit's output lock is always owned by its own packet, and
    /// ejectable flits cannot wait — the ejection phase drains them
    /// unconditionally).
    void verify_quiet(const Region& R) const {
        const auto blocked = [&](std::int32_t req, const std::deque<Flit>& fifo) {
            if (req == kRequestNone) return true;
            if (req == kRequestEject) return false;  // would have ejected
            const auto& out = channels_[static_cast<std::size_t>(req)];
            const auto owner = lock_[static_cast<std::size_t>(req)];
            if (out.credits <= 0) return true;                  // blocked on credit
            return owner >= 0 && owner != fifo.front().packet;  // blocked on lock
        };
        for (const auto node : R.nodes) {
            const auto n = static_cast<std::size_t>(node);
            assert(blocked(inj_request_[n], inj_fifo_[n]));
        }
        for (const auto ci : R.in_ch) {
            const auto c = static_cast<std::size_t>(ci);
            assert(blocked(ch_request_[c], channels_[c].fifo));
        }
    }
#endif

    const SimConfig& cfg_;
    const bool horizon_;  ///< Quiet-region fast-forward enabled (non-reference).
    const std::size_t n_nodes_;

    std::vector<Channel> channels_;
    /// in_channels_[n] / out_channels_[n]: channels whose FIFO sits at /
    /// whose upstream router is node n.
    std::vector<std::vector<std::int32_t>> in_channels_;
    std::vector<std::vector<std::int32_t>> out_channels_;

    std::vector<Packet> packets_;
    std::vector<std::vector<std::int32_t>> per_src_;  ///< Injection schedules.
    std::vector<std::size_t> inj_cursor_;
    std::vector<std::deque<Flit>> inj_fifo_;

    std::vector<std::int32_t> lock_;  ///< Wormhole owner per output channel.
    std::vector<std::uint32_t> rr_;   ///< Round-robin pointer per output.
    std::vector<std::int32_t> inj_request_;  ///< Request table: injection FIFOs.
    std::vector<std::int32_t> ch_request_;   ///< Request table: channel FIFOs.
    std::vector<std::int8_t> channel_drained_;
    std::vector<std::int8_t> inj_drained_;
    ChannelSet pipe_busy_;      ///< Channels with a flit in the link pipeline.
    ChannelSet fifo_occupied_;  ///< Channels with a flit in the input FIFO.
    /// Outputs a participating head flit requests this cycle; empty
    /// between cycles (allocation drains it).
    ChannelSet requested_;

    std::vector<Region> regions_;
    std::vector<std::int32_t> ch_from_region_;  ///< Channel -> upstream region.
    std::vector<std::int32_t> ch_to_region_;    ///< Channel -> downstream region.
    /// Per-cycle scratch, all cleared by finish_cycle()/allocate_awake().
    std::vector<std::int32_t> awake_;        ///< Regions running full phases.
    std::vector<std::int32_t> alloc_extra_;  ///< Sleepers woken for allocation.
    std::vector<std::int8_t> is_awake_;
    std::vector<std::int8_t> in_alloc_;
    std::vector<std::int8_t> region_active_;
    std::vector<std::int8_t> credit_touched_;
    std::vector<std::int32_t> drained_ch_scratch_;
    std::vector<std::int32_t> drained_inj_scratch_;

    SimResult res_;
    std::int64_t total_packets_ = 0;
    std::int64_t delivered_packets_ = 0;
    std::int64_t in_flight_flits_ = 0;
    std::int64_t injected_flits_ = 0;
    std::int64_t outputs_scanned_ = 0;  ///< allocate_output calls.
};

}  // namespace

const char* sim_core_name(SimCore c) {
    switch (c) {
        case SimCore::kReference: return "reference";
        case SimCore::kEventHorizon: return "event-horizon";
        case SimCore::kRegional: return "regional";
    }
    return "?";
}

std::optional<SimCore> sim_core_from_name(std::string_view name) {
    if (name == "reference") return SimCore::kReference;
    if (name == "event-horizon" || name == "event_horizon")
        return SimCore::kEventHorizon;
    if (name == "regional") return SimCore::kRegional;
    return std::nullopt;
}

std::uint32_t result_hash(const SimResult& r) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mixd = [&mix](double d) {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        mix(v);
    };
    mix(static_cast<std::uint64_t>(r.cycles));
    mix(static_cast<std::uint64_t>(r.packets));
    mix(static_cast<std::uint64_t>(r.flits));
    mix(static_cast<std::uint64_t>(r.flit_hops));
    mix(r.completed ? 1 : 0);
    mix(static_cast<std::uint64_t>(r.packet_latency.count()));
    mixd(r.packet_latency.mean());
    mixd(r.packet_latency.variance());
    mixd(r.packet_latency.min());
    mixd(r.packet_latency.max());
    for (const auto v : r.router_flits) mix(static_cast<std::uint64_t>(v));
    for (const auto v : r.link_flits) mix(static_cast<std::uint64_t>(v));
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

SimCore resolved_sim_core(SimCore configured) {
    if (const auto forced = core_env_override()) return *forced;
    return configured;
}

Simulator::Simulator(const topo::Topology& topo, const RouteTable& routes, SimConfig cfg)
    : topo_(topo), routes_(routes), cfg_(cfg) {
    if (topo.node_count() != routes.node_count())
        throw std::invalid_argument("route table built for a different topology");
    cfg_.core = resolved_sim_core(cfg_.core);
}

void Simulator::add_demand(const Demand& d) {
    if (d.src < 0 || d.dst < 0 || d.src >= topo_.node_count() ||
        d.dst >= topo_.node_count())
        throw std::out_of_range("demand endpoint out of range");
    if (d.src == d.dst || d.bytes <= 0) return;  // local or empty: no traffic
    demands_.push_back(d);
}

void Simulator::add_demands(const std::vector<Demand>& ds) {
    for (const auto& d : ds) add_demand(d);
}

SimResult Simulator::run() {
    Engine engine(topo_, routes_, cfg_, demands_);
    demands_.clear();
    return engine.run();
}

}  // namespace floretsim::noc
