/**
 * @file
 * Microbenchmarks of the event transport (google-benchmark): per-event
 * virtual dispatch to the tools, and SGB3 trace recording, decode and
 * profiled replay, the "collect once, analyze many" loop.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cg/cg_tool.hh"
#include "core/checkpoint.hh"
#include "core/sigil_profiler.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "support/rng.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

using namespace sigil;

namespace {

/**
 * One deterministic mixed workload: function calls, ops, branches, and
 * memory traffic in a hot 16 KiB window. The shape of a real traced
 * program, sized so one benchmark iteration is one full run.
 */
void
driveWorkload(vg::Guest &g, int iters)
{
    Rng rng(42);
    vg::FunctionId fns[4] = {g.fn("a"), g.fn("b"), g.fn("c"), g.fn("d")};
    g.enter("main");
    for (int i = 0; i < iters; ++i) {
        switch (i & 7) {
        case 0:
            if (g.callDepth() < 8)
                g.enter(fns[rng.nextBounded(4)]);
            g.iop(3);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.iop(1 + rng.nextBounded(16));
            break;
        case 3:
            g.branch((i & 16) != 0);
            break;
        default:
            if (i & 1)
                g.read(0x10000 + rng.nextBounded(1 << 14), 8);
            else
                g.write(0x10000 + rng.nextBounded(1 << 14), 8);
            break;
        }
    }
    while (g.callDepth() > 0)
        g.leave();
    g.finish();
}

constexpr int kWorkloadIters = 50000;

/** Counts every event; the cheapest possible analysis, so the timing
 *  isolates the dispatch cost itself. */
class CountingTool : public vg::Tool
{
  public:
    void fnEnter(vg::ContextId, vg::CallNum) override { ++count_; }
    void fnLeave(vg::ContextId, vg::CallNum) override { ++count_; }
    void memRead(vg::Addr, unsigned size) override { count_ += size; }
    void memWrite(vg::Addr, unsigned size) override { count_ += size; }
    void op(std::uint64_t i, std::uint64_t f) override { count_ += i + f; }
    void branch(bool) override { ++count_; }

    std::uint64_t count() const { return count_; }

  private:
    std::uint64_t count_ = 0;
};

/** Dispatch overhead alone: the per-event virtuals into a counter. */
void
BM_DispatchCountingTool(benchmark::State &state)
{
    for (auto _ : state) {
        vg::Guest g("bench");
        CountingTool tool;
        g.addTool(&tool);
        driveWorkload(g, kWorkloadIters);
        benchmark::DoNotOptimize(tool.count());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
}
BENCHMARK(BM_DispatchCountingTool);

/**
 * End-to-end Sigil profiling throughput. Arg: granularity shift —
 * shift 6 is the paper's line-granularity mode, where light
 * per-access shadow work exposes the dispatch share of the per-event
 * cost.
 */
void
BM_SigilWorkload(benchmark::State &state)
{
    core::SigilConfig cfg;
    cfg.granularityShift = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        vg::Guest g("bench");
        core::SigilProfiler prof(cfg);
        g.addTool(&prof);
        driveWorkload(g, kWorkloadIters);
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
}
BENCHMARK(BM_SigilWorkload)->Arg(0)->Arg(6);

/** Full stack: Sigil plus cg cache/branch simulation. */
void
BM_FullStackWorkload(benchmark::State &state)
{
    for (auto _ : state) {
        vg::Guest g("bench");
        core::SigilProfiler prof;
        cg::CgTool cg_tool;
        g.addTool(&prof);
        g.addTool(&cg_tool);
        driveWorkload(g, kWorkloadIters);
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
}
BENCHMARK(BM_FullStackWorkload);

/** The workload recorded once as an SGB3 trace. */
const std::string &
recordedTrace()
{
    static const std::string trace = [] {
        std::ostringstream os(std::ios::binary);
        vg::Guest g("bench");
        vg::BinaryTraceRecorder rec(os);
        g.addTool(&rec);
        driveWorkload(g, kWorkloadIters);
        return os.str();
    }();
    return trace;
}

/**
 * Recording cost: per-block CRC32C (payload + header), the framing
 * fields and per-frame LZ compression, all on the guest thread. The
 * `trace_bytes` counter is the recorded size.
 */
void
BM_TraceRecordBinary(benchmark::State &state)
{
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::ostringstream os(std::ios::binary);
        vg::Guest g("bench");
        vg::BinaryTraceRecorder rec(os);
        g.addTool(&rec);
        driveWorkload(g, kWorkloadIters);
        bytes = os.str().size();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["trace_bytes"] = static_cast<double>(bytes);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_TraceRecordBinary);

/**
 * Trace replay, parsing cost only (no tools attached): per-block CRC
 * verification, decompression and decode from a stream.
 */
void
BM_TraceReplayParse(benchmark::State &state)
{
    const std::string &trace = recordedTrace();
    std::uint64_t events = 0;
    for (auto _ : state) {
        std::istringstream is(trace, std::ios::binary);
        vg::Guest g("bench");
        events = vg::replayBinaryTrace(is, g);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * events));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_TraceReplayParse);

/**
 * Trace replay feeding a Sigil profiler — the "collect once, analyze
 * many times" loop end to end. Arg: granularity shift.
 */
void
BM_TraceReplayProfiled(benchmark::State &state)
{
    const std::string &trace = recordedTrace();
    core::SigilConfig cfg;
    cfg.granularityShift = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        std::istringstream is(trace, std::ios::binary);
        vg::Guest g("bench");
        core::SigilProfiler prof(cfg);
        g.addTool(&prof);
        vg::replayBinaryTrace(is, g);
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
}
BENCHMARK(BM_TraceReplayProfiled)->Arg(0)->Arg(6);

/**
 * Frame decode, parsing cost only: a zero-copy BinaryReplaySession
 * over the in-memory trace, CRC-verifying, decompressing and decoding
 * each frame inline.
 */
void
BM_ParallelDecode(benchmark::State &state)
{
    const std::string &trace = recordedTrace();
    std::uint64_t events = 0;
    for (auto _ : state) {
        vg::Guest g("bench");
        vg::BinaryReplaySession session(std::string_view(trace), g);
        while (session.step()) {
        }
        events = session.finish().eventsDelivered;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * events));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_ParallelDecode)->UseRealTime();

/**
 * The same decode end to end, feeding a Sigil profiler: shows how much
 * of the profiled pipeline the decode stage is.
 */
void
BM_ParallelDecodeProfiled(benchmark::State &state)
{
    const std::string &trace = recordedTrace();
    for (auto _ : state) {
        vg::Guest g("bench");
        core::SigilProfiler prof;
        g.addTool(&prof);
        vg::BinaryReplaySession session(std::string_view(trace), g);
        while (session.step()) {
        }
        session.finish();
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}
BENCHMARK(BM_ParallelDecodeProfiled)->UseRealTime();

/**
 * Checkpointed replay smoke benchmark: the full trace + profiler replay
 * with periodic state snapshots, against BM_TraceReplayProfiled/0
 * as the no-checkpoint baseline. Arg: checkpoint interval in blocks.
 */
/** Trace with finer-grained blocks than the default, so a
 *  checkpoint interval of a few blocks fires many times over the
 *  50k-event workload. */
const std::string &
checkpointTrace()
{
    static const std::string trace = [] {
        std::ostringstream os(std::ios::binary);
        vg::Guest g("bench");
        vg::BinaryTraceRecorder rec(os, 512);
        g.addTool(&rec);
        driveWorkload(g, kWorkloadIters);
        return os.str();
    }();
    return trace;
}

void
BM_CheckpointedReplay(benchmark::State &state)
{
    const std::string &trace = checkpointTrace();
    std::string path = "/tmp/sigil_bench_ckpt";
    core::CheckpointConfig ck;
    ck.path = path;
    ck.intervalBlocks = static_cast<std::size_t>(state.range(0));
    std::uint64_t ckpt_bytes = 0;
    for (auto _ : state) {
        // A fresh run each iteration: stale checkpoints would otherwise
        // short-circuit the replay.
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());
        std::istringstream is(trace, std::ios::binary);
        vg::Guest g("bench");
        core::SigilProfiler prof;
        core::CheckpointStats st;
        core::replayWithCheckpoints(is, g, prof, {}, ck, &st);
        ckpt_bytes = st.lastCheckpointBytes;
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    state.counters["ckpt_bytes"] =
        static_cast<double>(ckpt_bytes);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
}
BENCHMARK(BM_CheckpointedReplay)->Arg(16)->Arg(64);

/**
 * Resume latency: checkpoint files persist across iterations, so every
 * iteration after the first loads the newest snapshot (written near
 * the end of the trace) and replays only the remaining tail — the cost
 * a crashed analysis pays to get back to where it was.
 */
void
BM_CheckpointResume(benchmark::State &state)
{
    const std::string &trace = checkpointTrace();
    std::string path = "/tmp/sigil_bench_resume";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    core::CheckpointConfig ck;
    ck.path = path;
    ck.intervalBlocks = static_cast<std::size_t>(state.range(0));
    bool resumed = false;
    for (auto _ : state) {
        std::istringstream is(trace, std::ios::binary);
        vg::Guest g("bench");
        core::SigilProfiler prof;
        core::CheckpointStats st;
        core::replayWithCheckpoints(is, g, prof, {}, ck, &st);
        resumed = st.resumed;
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    state.counters["resumed"] = resumed ? 1 : 0;
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWorkloadIters);
}
BENCHMARK(BM_CheckpointResume)->Arg(16);

/**
 * Memory-heavy workload over a wide (16 MiB) address window: at byte
 * granularity the window spans ~4096 shadow chunks, and accesses
 * average ~144 bytes, so per-unit classification dominates the replay
 * — the regime the serial hot-path work targets.
 */
void
driveWideWorkload(vg::Guest &g, int iters)
{
    Rng rng(7);
    vg::FunctionId fns[4] = {g.fn("a"), g.fn("b"), g.fn("c"), g.fn("d")};
    g.enter("main");
    for (int i = 0; i < iters; ++i) {
        switch (i & 15) {
        case 0:
            if (g.callDepth() < 8)
                g.enter(fns[rng.nextBounded(4)]);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.iop(1 + rng.nextBounded(8));
            break;
        default: {
            vg::Addr addr = 0x100000 + rng.nextBounded(1u << 24);
            unsigned size = 32 + rng.nextBounded(224);
            if (i & 1)
                g.read(addr, size);
            else
                g.write(addr, size);
            break;
        }
        }
    }
    while (g.callDepth() > 0)
        g.leave();
    g.finish();
}

constexpr int kWideWorkloadIters = 20000;

const std::string &
wideTrace()
{
    static const std::string trace = [] {
        std::ostringstream os(std::ios::binary);
        vg::Guest g("bench");
        vg::BinaryTraceRecorder rec(os);
        g.addTool(&rec);
        driveWideWorkload(g, kWideWorkloadIters);
        return os.str();
    }();
    return trace;
}

/**
 * Profiled replay of the wide workload: the trace into a
 * full-fidelity (re-use mode) Sigil profiler. Real time, like the
 * recorded baselines of this benchmark.
 */
void
BM_WideReplay(benchmark::State &state)
{
    const std::string &trace = wideTrace();
    core::SigilConfig cfg; // defaults: re-use tracking on
    for (auto _ : state) {
        std::istringstream is(trace, std::ios::binary);
        vg::Guest g("bench");
        core::SigilProfiler prof(cfg);
        g.addTool(&prof);
        vg::replayBinaryTrace(is, g);
        benchmark::DoNotOptimize(prof.aggregates(0).readBytes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kWideWorkloadIters);
}
BENCHMARK(BM_WideReplay)->UseRealTime();

/**
 * One sigild instance shared by every BM_ServerQueryThroughput run:
 * the wide trace written to a file, loaded once into the catalog,
 * served over a Unix-domain socket by an 8-worker pool. Started on
 * first use and drained at process exit so the socket file is
 * unlinked.
 */
const server::ProfileQueryServer &
queryServerFixture(std::string &socket_path)
{
    struct Fixture
    {
        std::string socketPath;
        server::ProfileQueryServer *srv = nullptr;
    };
    static Fixture fx = [] {
        Fixture f;
        std::string stem =
            "/tmp/sigil_bench_server_" + std::to_string(::getpid());
        std::string trace_path = stem + ".trace";
        {
            std::ofstream os(trace_path, std::ios::binary);
            os << wideTrace();
        }
        f.socketPath = stem + ".sock";
        server::ServerConfig cfg;
        cfg.unixPath = f.socketPath;
        cfg.threads = 8;
        f.srv = new server::ProfileQueryServer(cfg);
        std::string err;
        if (!f.srv->start(&err)) {
            std::fprintf(stderr, "bench server fixture: %s\n",
                         err.c_str());
            std::abort();
        }
        server::LoadStatus ls =
            f.srv->catalog().load("bench", trace_path);
        std::remove(trace_path.c_str());
        if (!ls.ok) {
            std::fprintf(stderr, "bench server fixture load: %s\n",
                         ls.error.c_str());
            std::abort();
        }
        return f;
    }();
    static const int cleanup = [] {
        std::atexit([] {
            // The fixture pointer is reachable through the static
            // above; re-enter with a dummy string to fetch it.
            std::string dummy;
            const_cast<server::ProfileQueryServer &>(
                queryServerFixture(dummy))
                .stop();
        });
        return 0;
    }();
    (void)cleanup;
    socket_path = fx.socketPath;
    return *fx.srv;
}

/**
 * Daemon query throughput: Arg(N) clients hammer the loaded profile
 * concurrently over the Unix-domain socket with a mixed query stream
 * (function rows, comm edges, flat summary, catalog list), one
 * connection per client per iteration. minibench has no Threads()
 * support, so the benchmark spawns its own client threads and runs on
 * real time; items/sec is end-to-end requests per second through
 * framing, dispatch, rendering, and the socket round-trip. The
 * failed_requests counter must stay 0 — a non-RespText answer under
 * plain load is a server bug, not noise.
 */
void
BM_ServerQueryThroughput(benchmark::State &state)
{
    std::string socket_path;
    queryServerFixture(socket_path);
    const int clients = static_cast<int>(state.range(0));
    constexpr int kRequestsPerClient = 64;
    std::atomic<std::uint64_t> failures{0};
    for (auto _ : state) {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            pool.emplace_back([&socket_path, &failures] {
                server::QueryClient qc =
                    server::QueryClient::connectUnix(socket_path);
                if (!qc.valid()) {
                    failures.fetch_add(kRequestsPerClient);
                    return;
                }
                for (int i = 0; i < kRequestsPerClient; ++i) {
                    server::QueryResult r;
                    switch (i & 3) {
                    case 0:
                        r = qc.function("bench", "a");
                        break;
                    case 1:
                        r = qc.edges("bench");
                        break;
                    case 2:
                        r = qc.summary("bench");
                        break;
                    default:
                        r = qc.list();
                        break;
                    }
                    if (!r.ok)
                        failures.fetch_add(1);
                    benchmark::DoNotOptimize(r.text.size());
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }
    state.counters["failed_requests"] =
        static_cast<double>(failures.load());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            clients * kRequestsPerClient);
}
BENCHMARK(BM_ServerQueryThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
