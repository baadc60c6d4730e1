/**
 * @file
 * Microbenchmarks of the tool-stack hot paths (google-benchmark):
 * shadow-memory lookup, read classification, cache simulation, and
 * full event dispatch. These quantify the per-event costs behind the
 * Figure 4/5 slowdowns.
 */

#include <benchmark/benchmark.h>

#include <sstream>

#include "cg/cg_tool.hh"
#include "core/sigil_profiler.hh"
#include "shadow/reuse_distance.hh"
#include "shadow/shadow_memory.hh"
#include "support/rng.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

using namespace sigil;

namespace {

void
BM_ShadowLookupSequential(benchmark::State &state)
{
    shadow::ShadowMemory sm;
    std::uint64_t unit = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sm.lookup(unit));
        unit = (unit + 1) & 0xfffff;
    }
}
BENCHMARK(BM_ShadowLookupSequential);

void
BM_ShadowLookupRandom(benchmark::State &state)
{
    shadow::ShadowMemory sm;
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sm.lookup(rng.nextBounded(1 << 20)));
}
BENCHMARK(BM_ShadowLookupRandom);

void
BM_ShadowLookupWithFifoLimit(benchmark::State &state)
{
    shadow::ShadowMemory::Config cfg;
    cfg.maxChunks = 16;
    shadow::ShadowMemory sm(cfg);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sm.lookup(rng.nextBounded(1 << 20)));
}
BENCHMARK(BM_ShadowLookupWithFifoLimit);

/**
 * Strided shadow walks: one access of `size` guest bytes per
 * iteration, advancing by `size` through a wrapping address window,
 * walking every covered unit — the shape of
 * SigilProfiler::memRead/memWrite. The PerUnit variant resolves the
 * chunk per unit (the retained reference path); the Span variant
 * resolves it per chunk-clamped run.
 *
 * Unlimited variants use a hot 16 KiB window whose shadow stays
 * cache-resident, so the walk overhead itself is measured rather than
 * DRAM latency on the shadow arrays. Chunk-limit variants sweep a
 * 4 MiB window so the limiter continuously allocates and evicts, which
 * is the cost that mode exists to bound.
 *
 * Args: {access bytes, granularity shift, max chunks (0 = no limit)}.
 */
std::uint64_t
strideWindow(std::size_t max_chunks)
{
    return max_chunks == 0 ? (std::uint64_t{1} << 14)
                           : (std::uint64_t{1} << 22);
}

void
BM_ShadowPerUnitStride(benchmark::State &state)
{
    shadow::ShadowMemory::Config cfg;
    cfg.granularityShift = static_cast<unsigned>(state.range(1));
    cfg.maxChunks = static_cast<std::size_t>(state.range(2));
    shadow::ShadowMemory sm(cfg);
    unsigned size = static_cast<unsigned>(state.range(0));
    const std::uint64_t window = strideWindow(cfg.maxChunks);
    const shadow::StampId ws =
        sm.internWriter(shadow::WriterStamp{0, 1, 0});
    vg::Addr addr = 0;
    for (auto _ : state) {
        std::uint64_t first = sm.unitOf(addr);
        std::uint64_t last = sm.lastUnitOf(addr, size);
        for (std::uint64_t u = first; u <= last; ++u)
            sm.lookup(u).writer = ws;
        addr = (addr + size) & (window - 1);
    }
    benchmark::DoNotOptimize(sm.stats().chunksAllocated);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_ShadowPerUnitStride)
    ->ArgsProduct({{1, 8, 64, 4096}, {0, 6}, {0, 16}});

void
BM_ShadowSpanStride(benchmark::State &state)
{
    shadow::ShadowMemory::Config cfg;
    cfg.granularityShift = static_cast<unsigned>(state.range(1));
    cfg.maxChunks = static_cast<std::size_t>(state.range(2));
    shadow::ShadowMemory sm(cfg);
    unsigned size = static_cast<unsigned>(state.range(0));
    const std::uint64_t window = strideWindow(cfg.maxChunks);
    const shadow::StampId ws =
        sm.internWriter(shadow::WriterStamp{0, 1, 0});
    vg::Addr addr = 0;
    for (auto _ : state) {
        std::uint64_t first = sm.unitOf(addr);
        std::uint64_t last = sm.lastUnitOf(addr, size);
        sm.span(first, last, false, [&](shadow::ShadowMemory::Run run) {
            std::fill(run.hot, run.hot + run.count,
                      shadow::ShadowHot{ws, 0});
        });
        addr = (addr + size) & (window - 1);
    }
    benchmark::DoNotOptimize(sm.stats().chunksAllocated);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_ShadowSpanStride)
    ->ArgsProduct({{1, 8, 64, 4096}, {0, 6}, {0, 16}});

void
BM_CacheSimAccess(benchmark::State &state)
{
    cg::CacheSim sim;
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.access(rng.nextBounded(1 << 22), 8));
}
BENCHMARK(BM_CacheSimAccess);

/** Full stack: one traced read through cg + Sigil. */
void
BM_FullReadDispatch(benchmark::State &state)
{
    vg::Guest g("bench");
    cg::CgTool cg_tool;
    core::SigilProfiler sigil_tool;
    g.addTool(&cg_tool);
    g.addTool(&sigil_tool);
    g.enter("main");
    g.write(0x10000, 8);
    Rng rng(3);
    for (auto _ : state)
        g.read(0x10000 + rng.nextBounded(4096), 8);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullReadDispatch);

/** Baseline: the same read with no tools attached ("native"). */
void
BM_NativeReadDispatch(benchmark::State &state)
{
    vg::Guest g("bench");
    g.enter("main");
    Rng rng(3);
    for (auto _ : state)
        g.read(0x10000 + rng.nextBounded(4096), 8);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NativeReadDispatch);

void
BM_FunctionEnterLeave(benchmark::State &state)
{
    vg::Guest g("bench");
    cg::CgTool cg_tool;
    core::SigilProfiler sigil_tool;
    g.addTool(&cg_tool);
    g.addTool(&sigil_tool);
    g.enter("main");
    vg::FunctionId fn = g.fn("callee");
    for (auto _ : state) {
        g.enter(fn);
        g.leave();
    }
}
BENCHMARK(BM_FunctionEnterLeave);

void
BM_ReuseDistanceAccess(benchmark::State &state)
{
    shadow::ReuseDistanceTracker tracker;
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(tracker.access(rng.nextBounded(4096)));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReuseDistanceAccess);

/** A fixed synthetic workload, recorded once as a trace. */
struct RecordedTrace
{
    std::string bytes;
    std::uint64_t events = 0;
};

const RecordedTrace &
throughputTrace()
{
    static const RecordedTrace trace = [] {
        std::ostringstream os(std::ios::binary);
        vg::Guest g("bench");
        vg::BinaryTraceRecorder recorder(os);
        g.addTool(&recorder);
        Rng rng(6);
        g.enter("main");
        for (int i = 0; i < 20000; ++i) {
            if ((i & 15) == 0) {
                g.enter("fn");
                g.iop(4);
                g.leave();
            }
            g.write(0x10000 + rng.nextBounded(4096), 8);
            g.read(0x10000 + rng.nextBounded(4096), 8);
        }
        g.leave();
        g.finish();
        return RecordedTrace{os.str(), recorder.eventsWritten()};
    }();
    return trace;
}

void
BM_TraceReplayThroughput(benchmark::State &state)
{
    const RecordedTrace &trace = throughputTrace();
    std::uint64_t peak = 0;
    for (auto _ : state) {
        std::istringstream in(trace.bytes, std::ios::binary);
        vg::Guest g2("bench");
        core::SigilProfiler prof;
        g2.addTool(&prof);
        benchmark::DoNotOptimize(vg::replayBinaryTrace(in, g2));
        peak = prof.shadowPeakBytes();
    }
    state.counters["shadow_peak_bytes"] = static_cast<double>(peak);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.events));
}
BENCHMARK(BM_TraceReplayThroughput);

/** Sequential byte stream through the cache sim (last-line filter). */
void
BM_CacheSimSequential(benchmark::State &state)
{
    cg::CacheSim sim;
    vg::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.access(addr, 8));
        addr = (addr + 8) & ((1 << 22) - 1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSimSequential);

} // namespace

BENCHMARK_MAIN();
