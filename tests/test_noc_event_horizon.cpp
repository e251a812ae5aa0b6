/// Differential suite for the fast simulator cores (credit-aware global
/// event horizon and the per-region-clock engine): across random
/// topologies, seeds, buffer depths of 1-4 flits, sparse and saturating
/// injection rates, saturated single-sink drains, corner-to-corner bursts,
/// and max_cycles-capped runs, every fast engine must produce a
/// bit-identical SimResult (cycles, packets, flits, flit_hops,
/// per-router/per-link counters, latency stats) to the reference cycle
/// loop. The engine-work statistics are the only fields allowed to differ
/// — and they must prove the fast path is both accounted (global
/// stepped + skipped == cycles; per-region stepped + skipped ==
/// regions * cycles) and not slower than the reference in executed cycles.
///
/// Every core runs the same active-set phase scans, so the cross-core
/// differential alone cannot catch a scan bug that all cores share. Each
/// case therefore also pins its result_hash to an exact golden captured
/// from the dense-scan engine the active sets replaced.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/floret.h"
#include "src/core/sfc.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"
#include "src/util/rng.h"

namespace floretsim::noc {
namespace {

std::vector<Demand> random_demands(std::int32_t nodes, std::uint64_t seed,
                                   int count, std::int64_t max_bytes) {
    util::Rng rng(seed);
    std::vector<Demand> ds;
    for (int i = 0; i < count; ++i) {
        const auto s =
            static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
        const auto d =
            static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
        if (s == d) continue;
        const auto bytes =
            8 * (1 + static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(max_bytes / 8))));
        ds.push_back({s, d, bytes});
    }
    return ds;
}

SimResult run_with(const topo::Topology& t, const RouteTable& rt,
                   const std::vector<Demand>& demands, SimConfig cfg,
                   SimCore core) {
    cfg.core = core;
    Simulator sim(t, rt, cfg);
    sim.add_demands(demands);
    return sim.run();
}

/// Accounting every core must satisfy regardless of which engine ran:
/// global cycles split exactly into stepped + skipped, and the per-region
/// totals are conserved — each region either participates in a stepped
/// cycle or its local clock leaps it, so the region totals sum to
/// regions * cycles and the hottest region bounds the extremes.
void expect_conserved(const SimResult& r, const std::string& label) {
    EXPECT_EQ(r.cycles_stepped + r.cycles_skipped, r.cycles) << label;
    EXPECT_GE(r.regions, 1) << label;
    EXPECT_EQ(r.region_cycles_stepped + r.region_cycles_skipped,
              r.regions * r.cycles)
        << label;
    EXPECT_LE(r.region_stepped_min, r.region_stepped_max) << label;
    EXPECT_LE(r.region_stepped_max, r.cycles_stepped) << label;
    EXPECT_GE(r.region_stepped_min, 0) << label;
    EXPECT_LE(r.region_cycles_stepped, r.regions * r.cycles_stepped) << label;
    // Every globally stepped cycle had at least one participating region.
    EXPECT_GE(r.region_cycles_stepped, r.cycles_stepped) << label;
}

/// The differential contract: semantic fields bit-identical across every
/// core and equal to the golden digest, engine-work statistics internally
/// consistent and no worse than the reference.
void expect_equivalent(const topo::Topology& t, const RouteTable& rt,
                       const std::vector<Demand>& demands, const SimConfig& cfg,
                       const std::string& label, const std::uint32_t golden) {
    const auto ref = run_with(t, rt, demands, cfg, SimCore::kReference);
    EXPECT_EQ(result_hash(ref), golden) << label;
    expect_conserved(ref, label + " [reference]");
    // The single-clock cores report one region spanning the fabric.
    EXPECT_EQ(ref.regions, 1) << label;
    EXPECT_EQ(ref.region_cycles_stepped, ref.cycles_stepped) << label;

    for (const auto core : {SimCore::kEventHorizon, SimCore::kRegional}) {
        const std::string tag =
            label + " [" + sim_core_name(core) + "]";
        const auto fast = run_with(t, rt, demands, cfg, core);

        EXPECT_EQ(fast.cycles, ref.cycles) << tag;
        EXPECT_EQ(fast.packets, ref.packets) << tag;
        EXPECT_EQ(fast.flits, ref.flits) << tag;
        EXPECT_EQ(fast.flit_hops, ref.flit_hops) << tag;
        EXPECT_EQ(fast.completed, ref.completed) << tag;
        EXPECT_EQ(fast.packet_latency.count(), ref.packet_latency.count())
            << tag;
        EXPECT_EQ(fast.packet_latency.mean(), ref.packet_latency.mean()) << tag;
        EXPECT_EQ(fast.packet_latency.variance(), ref.packet_latency.variance())
            << tag;
        EXPECT_EQ(fast.packet_latency.min(), ref.packet_latency.min()) << tag;
        EXPECT_EQ(fast.packet_latency.max(), ref.packet_latency.max()) << tag;
        EXPECT_EQ(fast.router_flits, ref.router_flits) << tag;
        EXPECT_EQ(fast.link_flits, ref.link_flits) << tag;

        expect_conserved(fast, tag);
        // The fast cores' no-op proofs subsume the reference's
        // idle-gap-only rule, so they can never execute more cycles.
        EXPECT_LE(fast.cycles_stepped, ref.cycles_stepped) << tag;
        if (core == SimCore::kEventHorizon) {
            EXPECT_EQ(fast.regions, 1) << tag;
        }
    }
}

// Golden digests, in each test's loop order.
constexpr std::uint32_t kMeshGoldens[] = {
    3346873852u, 3978546127u, 2368560567u, 3400440378u, 500036772u,  3162833844u,
    1872184860u, 884526765u,  1493680535u, 2746782201u, 2563342790u, 3487816685u,
    526543980u,  1767459383u, 1689020377u, 3016252196u, 4057080734u, 1105955080u,
    1940935240u, 304918817u,  3838352267u, 2447807484u, 2161999897u, 567891398u,
    1451682783u, 819599519u,  1267756486u, 1299399556u, 1398929417u, 3288789465u,
    1853198843u, 3147489302u};
constexpr std::uint32_t kIrregularGoldens[] = {167060150u,  3445898544u, 4237119353u,
                                               3495064357u, 1344147183u, 1950208826u,
                                               1345167059u, 1603017839u};
constexpr std::uint32_t kDeepPipelineGoldens[] = {1252950798u, 3357152767u, 4047592693u,
                                                  1786546848u};
constexpr std::uint32_t kCappedGoldens[] = {2470349476u, 2937321675u, 3267674091u,
                                            3931745990u, 423770814u,  859168224u,
                                            3632913269u, 3477019748u, 859168224u};
constexpr std::uint32_t kHotspotGolden = 1310636534u;
constexpr std::uint32_t kSaturatedDrainGolden = 1938920256u;
constexpr std::uint32_t kCornerBurstGolden = 616452928u;
constexpr std::uint32_t kForcedRegionsGolden = 81616538u;
/// bench_skip_traffic's saturated corner drain (its drain_*_result_hash).
constexpr std::uint32_t kSkipTrafficDrainGolden = 539005283u;

TEST(EventHorizon, DifferentialMatrixOnMesh) {
    const auto t = topo::make_mesh(5, 5);
    std::size_t k = 0;
    for (const auto policy :
         {RoutingPolicy::kShortestPath, RoutingPolicy::kUpDown}) {
        const auto rt = RouteTable::build(t, policy);
        for (std::int32_t depth = 1; depth <= 4; ++depth) {
            for (const std::uint64_t seed : {3u, 17u}) {
                for (const double rate : {0.005, 8.0}) {
                    SimConfig cfg;
                    cfg.max_cycles = 2'000'000;
                    cfg.input_buffer_flits = depth;
                    cfg.injection_rate = rate;
                    expect_equivalent(
                        t, rt, random_demands(25, seed, 60, 320), cfg,
                        "mesh policy=" + std::to_string(static_cast<int>(policy)) +
                            " depth=" + std::to_string(depth) + " seed=" +
                            std::to_string(seed) + " rate=" + std::to_string(rate),
                        kMeshGoldens[k++]);
                }
            }
        }
    }
    EXPECT_EQ(k, std::size(kMeshGoldens));
}

TEST(EventHorizon, DifferentialOnIrregularTopologies) {
    util::Rng swap_rng(31);
    const auto swap = topo::make_swap(6, 6, swap_rng);
    const auto floret = core::make_floret(core::generate_sfc_set(8, 8, 4));
    struct Case {
        const topo::Topology* t;
        std::int32_t nodes;
    };
    std::size_t k = 0;
    for (const auto& c : {Case{&swap, 36}, Case{&floret, 64}}) {
        const auto rt = RouteTable::build(*c.t, RoutingPolicy::kUpDown);
        for (std::int32_t depth = 1; depth <= 4; ++depth) {
            SimConfig cfg;
            cfg.max_cycles = 2'000'000;
            cfg.input_buffer_flits = depth;
            cfg.injection_rate = depth % 2 == 0 ? 8.0 : 0.01;
            expect_equivalent(*c.t, rt, random_demands(c.nodes, 7 + depth, 80, 480),
                              cfg,
                              c.t->name() + " depth=" + std::to_string(depth),
                              kIrregularGoldens[k++]);
        }
    }
    EXPECT_EQ(k, std::size(kIrregularGoldens));
}

TEST(EventHorizon, DifferentialOnDeepPipelines) {
    // Long links: many cycles where every flit is mid-pipe or stalled on a
    // credit that only a far-away arrival can free — the window the
    // credit-aware horizon jumps and the old FIFO-empty rule could not.
    topo::Topology t("longline", 4.0);
    for (std::int32_t i = 0; i < 5; ++i) t.add_node({8 * i, 0});
    for (int i = 0; i + 1 < 5; ++i) t.add_link(i, i + 1, 32.0);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    for (std::int32_t depth = 1; depth <= 4; ++depth) {
        SimConfig cfg;
        cfg.max_cycles = 2'000'000;
        cfg.input_buffer_flits = depth;
        cfg.injection_rate = 1.0;
        const auto demands = random_demands(5, 41 + depth, 30, 640);
        expect_equivalent(t, rt, demands, cfg,
                          "longline depth=" + std::to_string(depth),
                          kDeepPipelineGoldens[depth - 1]);
        // Congested drains on deep pipes are exactly where the credit-aware
        // proof must beat cycle stepping outright.
        const auto fast = run_with(t, rt, demands, cfg, SimCore::kEventHorizon);
        EXPECT_GT(fast.cycles_skipped, 0) << depth;
        EXPECT_LT(fast.cycles_stepped, fast.cycles) << depth;
    }
}

TEST(EventHorizon, DifferentialOnCappedRuns) {
    const auto t = topo::make_mesh(4, 4);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    std::size_t k = 0;
    for (const std::int64_t cap : {100, 2'000, 50'000}) {
        for (const double rate : {1e-4, 0.05, 8.0}) {
            SimConfig cfg;
            cfg.max_cycles = cap;
            cfg.injection_rate = rate;
            cfg.input_buffer_flits = 2;
            expect_equivalent(t, rt, random_demands(16, 5, 40, 320), cfg,
                              "cap=" + std::to_string(cap) +
                                  " rate=" + std::to_string(rate),
                              kCappedGoldens[k++]);
        }
    }
    EXPECT_EQ(k, std::size(kCappedGoldens));
}

TEST(EventHorizon, SkipsCreditBlockedWindows) {
    // Hotspot: every node floods one sink, so head flits pile up blocked on
    // zero-credit outputs while the sink ejects one flit per port per
    // cycle. The FIFO-empty rule never fires here; the credit-aware proof
    // must still find jumps.
    const auto t = topo::make_mesh(5, 5);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 1;  // maximum backpressure
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (topo::NodeId n = 0; n < 25; ++n)
        if (n != 12) demands.push_back({n, 12, 400});
    expect_equivalent(t, rt, demands, cfg, "hotspot", kHotspotGolden);
    const auto fast = run_with(t, rt, demands, cfg, SimCore::kEventHorizon);
    EXPECT_GT(fast.horizon_jumps, 0);
}

TEST(EventHorizon, SaturatedDrainSleepsColdRegions) {
    // One corner port ejecting, the rest of the fabric quiescent: a few
    // scattered sources flood node 0 while the other 95 nodes stay silent.
    // Something moves near the sink every cycle, so the global quiet proof
    // almost never fires — but the regional core's off-path tiles prove
    // local fixed points and leap, which is the entire point of per-region
    // clocks; path tiles wake for passing flits and jump back to sleep.
    const auto t = topo::make_mesh(10, 10);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 2;
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (const topo::NodeId src : {9, 44, 55, 90, 99})
        demands.push_back({src, 0, 8 * 1024});
    expect_equivalent(t, rt, demands, cfg, "saturated drain", kSaturatedDrainGolden);

    const auto regional = run_with(t, rt, demands, cfg, SimCore::kRegional);
    EXPECT_GT(regional.regions, 1);
    EXPECT_GT(regional.region_cycles_skipped, 0);
    EXPECT_GT(regional.region_horizon_jumps, 0);
    // The drain concentrates work: the sink's region steps nearly every
    // cycle while the far corner sleeps through most of the run.
    EXPECT_LT(regional.region_stepped_min, regional.region_stepped_max);
    // Strict superset of the global core's skipping on this pattern: the
    // per-region totals must beat what one global clock can prove.
    const auto global = run_with(t, rt, demands, cfg, SimCore::kEventHorizon);
    EXPECT_GT(regional.region_cycles_skipped,
              global.cycles_skipped * global.regions);
}

TEST(EventHorizon, CornerToCornerBurstHotspot) {
    // A single corner-to-corner burst: one long diagonal of busy links,
    // everything off-path idle. Both fast cores must stay bit-identical;
    // the regional core must additionally prove off-path tiles asleep.
    const auto t = topo::make_mesh(8, 8);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 1;  // maximum backpressure along the path
    cfg.injection_rate = 8.0;
    const std::vector<Demand> demands{{0, 63, 16 * 1024}};
    expect_equivalent(t, rt, demands, cfg, "corner burst", kCornerBurstGolden);

    const auto regional = run_with(t, rt, demands, cfg, SimCore::kRegional);
    EXPECT_GT(regional.regions, 1);
    EXPECT_GT(regional.region_cycles_skipped, 0);
}

TEST(EventHorizon, ForcedRegionCountsPreserveResults) {
    // cfg.regions is a scheduling knob, never a semantic one: any forced
    // tiling — including one region (the global core's shape) and counts
    // that do not divide the mesh — must reproduce the reference bits.
    const auto t = topo::make_mesh(6, 6);
    const auto rt = RouteTable::build(t, RoutingPolicy::kUpDown);
    const auto demands = random_demands(36, 23, 60, 400);
    const auto ref = [&] {
        SimConfig cfg;
        cfg.max_cycles = 2'000'000;
        cfg.injection_rate = 0.05;
        return run_with(t, rt, demands, cfg, SimCore::kReference);
    }();
    for (const std::int32_t regions : {1, 2, 5, 7}) {
        SimConfig cfg;
        cfg.max_cycles = 2'000'000;
        cfg.injection_rate = 0.05;
        cfg.regions = regions;
        const auto r = run_with(t, rt, demands, cfg, SimCore::kRegional);
        const std::string tag = "forced regions=" + std::to_string(regions);
        EXPECT_EQ(result_hash(r), kForcedRegionsGolden) << tag;
        EXPECT_EQ(r.cycles, ref.cycles) << tag;
        EXPECT_EQ(r.packets, ref.packets) << tag;
        EXPECT_EQ(r.flit_hops, ref.flit_hops) << tag;
        EXPECT_EQ(r.packet_latency.mean(), ref.packet_latency.mean()) << tag;
        EXPECT_EQ(r.router_flits, ref.router_flits) << tag;
        EXPECT_EQ(r.link_flits, ref.link_flits) << tag;
        expect_conserved(r, tag);
        EXPECT_LE(r.cycles_stepped, ref.cycles_stepped) << tag;
    }
}

TEST(EventHorizon, SkipTrafficDrainMatchesGolden) {
    // bench_skip_traffic's saturated corner drain: five sources next to
    // the sink flood it through 2-flit buffers for ~37k cycles.
    const auto t = topo::make_mesh(10, 10);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    SimConfig cfg;
    cfg.max_cycles = 2'000'000;
    cfg.input_buffer_flits = 2;
    cfg.injection_rate = 8.0;
    std::vector<Demand> demands;
    for (const topo::NodeId src : {1, 2, 10, 11, 20})
        demands.push_back({src, 0, 64 * 1024});
    expect_equivalent(t, rt, demands, cfg, "skip-traffic drain",
                      kSkipTrafficDrainGolden);
}

TEST(EventHorizon, StatisticsAreZeroWorkOnEmptyRun) {
    const auto t = topo::make_mesh(2, 2);
    const auto rt = RouteTable::build(t, RoutingPolicy::kShortestPath);
    Simulator sim(t, rt, SimConfig{});
    const auto res = sim.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.cycles_stepped, 0);
    EXPECT_EQ(res.cycles_skipped, 0);
    EXPECT_EQ(res.horizon_jumps, 0);
}

TEST(EventHorizon, CoreNamesAreStable) {
    EXPECT_STREQ(sim_core_name(SimCore::kReference), "reference");
    EXPECT_STREQ(sim_core_name(SimCore::kEventHorizon), "event-horizon");
    EXPECT_STREQ(sim_core_name(SimCore::kRegional), "regional");
    for (const auto core :
         {SimCore::kReference, SimCore::kEventHorizon, SimCore::kRegional}) {
        const auto parsed = sim_core_from_name(sim_core_name(core));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, core);
    }
    EXPECT_EQ(sim_core_from_name("event_horizon"), SimCore::kEventHorizon);
    EXPECT_FALSE(sim_core_from_name("warp").has_value());
    EXPECT_FALSE(sim_core_from_name("").has_value());
}

}  // namespace
}  // namespace floretsim::noc
