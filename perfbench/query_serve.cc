/**
 * @file
 * query_serve: the profile-query daemon under a closed loop. Setup
 * records each program's trace, starts a default server on a Unix
 * socket and loads every trace into its catalog. One client thread on
 * one persistent connection then sends a seeded mix of function (40%),
 * summary (20%), edges (20%), partition (10%) and profile (10%) queries,
 * each only when the previous answer is in. Each timed pass runs the
 * whole process, client and server threads, on the next single CPU, so
 * a round trip measures the server's work and one hand-over, not the
 * wake-up of an idle CPU. Every answer must equal the in-process
 * rendering of the same query on a profile replayed with the
 * catalog's own configuration (core::SigilConfig{}).
 */

#include <array>
#include <fstream>
#include <memory>
#include <thread>

#include "common.hh"
#include "core/profile_query.hh"
#include "core/sigil_profiler.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "support/rng.hh"
#include "vg/trace_io.hh"

namespace perfbench {

namespace {

using namespace sigil;

enum QueryOp
{
    kFunction,
    kSummary,
    kEdges,
    kPartition,
    kProfile,
    kNumOps,
};

const char *const kOpNames[kNumOps] = {"function", "summary", "edges",
                                       "partition", "profile"};

/** Requests each client sends per pass. */
constexpr int kRequestsPerPass = 4000;

/** Clients, one thread and one persistent connection each. */
constexpr int kClients = 1;

/** One loaded program and the answers the server must give for it. */
struct Expected
{
    std::string name;
    std::string path;
    std::uint64_t events = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t profileBytes = 0;
    std::vector<std::string> fnNames;
    std::vector<std::string> fnText;
    std::array<std::string, kNumOps> opText;
};

std::string
render(QueryOp op, const core::SigilProfile &profile, const std::string &fn)
{
    switch (op) {
    case kFunction:
        return core::functionQueryText(profile, fn);
    case kSummary:
        return core::summaryQueryText(profile);
    case kEdges:
        return core::edgesQueryText(profile);
    case kPartition:
        return server::partitionQueryText(profile);
    default:
        return core::profileQueryText(profile);
    }
}

/** Record the trace and render every answer on the replayed profile. */
Expected
prepare(const Program &p, const Options &opt, Result &r,
        core::SigilProfile *profile_out)
{
    Expected e;
    e.name = p.name;
    e.path = opt.tmpDir + "/" + p.name + ".trace";
    {
        std::ofstream file(e.path, std::ios::binary | std::ios::trunc);
        vg::Guest guest(p.name);
        vg::BinaryTraceRecorder recorder(file);
        guest.addTool(&recorder);
        p.run(guest);
        guest.finish();
        e.events = recorder.eventsWritten();
    }
    e.traceBytes = fileBytes(e.path);

    vg::Guest guest(p.name);
    core::SigilProfiler profiler{core::SigilConfig{}};
    guest.addTool(&profiler);
    vg::ReplayReport report =
        vg::replayTraceFile(e.path, guest, vg::ReplayOptions{});
    r.check(report.ok() && report.eventsDelivered == e.events,
            "query_serve: replaying " + p.name + ": " + report.summary());
    core::SigilProfile profile = profiler.takeProfile();
    for (const core::SigilRow &row : profile.rows) {
        if (row.fnName.empty())
            continue;
        bool seen = false;
        for (const std::string &name : e.fnNames)
            seen = seen || name == row.fnName;
        if (!seen)
            e.fnNames.push_back(row.fnName);
    }
    for (const std::string &fn : e.fnNames)
        e.fnText.push_back(render(kFunction, profile, fn));
    for (int op = kSummary; op < kNumOps; ++op)
        e.opText[op] = render(static_cast<QueryOp>(op), profile, "");
    e.profileBytes = core::profileMemoryEstimate(profile);
    *profile_out = std::move(profile);
    return e;
}

struct ClientStats
{
    std::array<std::vector<double>, kNumOps> latencyUs;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::uint64_t bytes = 0;
    std::string firstFailure;
};

void
runClient(server::QueryClient &client, Rng &rng,
          const std::vector<Expected> &expected, ClientStats &st)
{
    for (int k = 0; k < kRequestsPerPass; ++k) {
        const std::uint64_t d = rng.nextBounded(10);
        const QueryOp op = d < 4   ? kFunction
                           : d < 6 ? kSummary
                           : d < 8 ? kEdges
                           : d < 9 ? kPartition
                                   : kProfile;
        const Expected &e = expected[rng.nextBounded(expected.size())];
        const std::size_t fn = rng.nextBounded(e.fnNames.size());
        const std::string &want =
            op == kFunction ? e.fnText[fn] : e.opText[op];

        Clock::time_point t0 = Clock::now();
        server::QueryResult res;
        switch (op) {
        case kFunction:
            res = client.function(e.name, e.fnNames[fn]);
            break;
        case kSummary:
            res = client.summary(e.name);
            break;
        case kEdges:
            res = client.edges(e.name);
            break;
        case kPartition:
            res = client.partition(e.name);
            break;
        default:
            res = client.profile(e.name);
            break;
        }
        st.latencyUs[op].push_back(
            static_cast<double>(nsBetween(t0, Clock::now())) * 1e-3);
        ++st.requests;
        st.bytes += res.text.size();
        if (!res.ok || res.text != want) {
            ++st.failed;
            if (st.firstFailure.empty())
                st.firstFailure = std::string(kOpNames[op]) + " on " +
                                  e.name + ": " +
                                  (res.ok ? "answer differs from the "
                                            "in-process rendering"
                                          : res.error);
        }
    }
}

struct QueryPass
{
    double wall = 0.0;
    std::array<ClientStats, kClients> clients;
};

QueryPass
queryPass(std::array<server::QueryClient, kClients> &clients,
          std::array<Rng, kClients> &rngs,
          const std::vector<Expected> &expected, Tracer &tracer,
          int parent, Result &r)
{
    QueryPass pass;
    Clock::time_point t0 = Clock::now();
    {
        std::array<std::thread, kClients> threads;
        for (int c = 0; c < kClients; ++c)
            threads[c] = std::thread(runClient, std::ref(clients[c]),
                                     std::ref(rngs[c]), std::cref(expected),
                                     std::ref(pass.clients[c]));
        for (std::thread &t : threads)
            t.join();
    }
    Clock::time_point t1 = Clock::now();
    pass.wall = secondsBetween(t0, t1);

    for (int c = 0; c < kClients; ++c) {
        const ClientStats &st = pass.clients[c];
        r.attempted += st.requests;
        r.failed += st.failed;
        if (st.failed > 0)
            std::fprintf(stderr, "check failed: query_serve: %llu of %llu "
                                 "answers wrong, first: %s\n",
                         static_cast<unsigned long long>(st.failed),
                         static_cast<unsigned long long>(st.requests),
                         st.firstFailure.c_str());
        // One busy span per (client, op): summed round trips.
        int span = tracer.add("client" + std::to_string(c), parent, t0, t1);
        for (int op = 0; op < kNumOps; ++op) {
            double us = 0.0;
            for (double v : st.latencyUs[op])
                us += v;
            int s = tracer.add(
                std::string("server.") + kOpNames[op], span, t0,
                t0 + std::chrono::nanoseconds(
                         static_cast<std::int64_t>(us * 1e3)));
            tracer.attr(s, "requests",
                        static_cast<double>(st.latencyUs[op].size()));
        }
    }
    return pass;
}

/** The running server with its catalog loaded, plus setup timings. */
struct Served
{
    std::unique_ptr<server::ProfileQueryServer> server;
    double loadSeconds = 0.0;
};

Served
startServer(const Options &opt, const std::vector<Expected> &expected,
            Result &r)
{
    Served s;
    server::ServerConfig cfg;
    cfg.unixPath = opt.tmpDir + "/q.sock";
    s.server = std::make_unique<server::ProfileQueryServer>(cfg);
    std::string err;
    r.check(s.server->start(&err), "query_serve: server start: " + err);
    Clock::time_point t0 = Clock::now();
    for (const Expected &e : expected) {
        server::LoadStatus st = s.server->catalog().load(e.name, e.path);
        r.check(st.ok, "query_serve: loading " + e.name + ": " + st.error);
    }
    s.loadSeconds = secondsSince(t0);
    return s;
}

} // namespace

Result
runQueryServe(const Options &opt, Tracer &tracer)
{
    Result r;
    const std::vector<Program> programs = programSet(opt.seed);
    const std::size_t n = programs.size();

    std::vector<Expected> expected(n);
    std::vector<core::SigilProfile> profiles(n);
    Served served;
    std::vector<double> setup, load;
    CpuRotation cpus;
    while (moreSetup(setup)) {
        cpus.next();
        if (served.server)
            served.server->stop();
        served = Served{};
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            expected[i] = prepare(programs[i], opt, r, &profiles[i]);
        served = startServer(opt, expected, r);
        setup.push_back(secondsSince(t0));
        load.push_back(served.loadSeconds);
    }

    std::array<server::QueryClient, kClients> clients;
    std::array<Rng, kClients> rngs;
    for (int c = 0; c < kClients; ++c) {
        clients[c] = server::QueryClient::connectUnix(opt.tmpDir + "/q.sock");
        r.check(clients[c].valid(), "query_serve: client connect");
        rngs[c] = Rng(opt.seed * 0x100000001b3ull + static_cast<unsigned>(c));
    }

    Tracer off(false);
    int root = tracer.begin("query_serve", -1);
    std::vector<QueryPass> untraced, traced;
    if (r.failed == 0) {
        Clock::time_point start = Clock::now();
        const int min_passes = opt.trace ? 2 : 1;
        for (int k = 0; k < min_passes || secondsSince(start) < opt.seconds;
             ++k) {
            const bool with_trace = opt.trace && k % 2 == 1;
            Tracer &t = with_trace ? tracer : off;
            cpus.pinProcess();
            int span = t.begin("pass", root);
            QueryPass p = queryPass(clients, rngs, expected, t, span, r);
            t.end(span);
            (with_trace ? traced : untraced).push_back(std::move(p));
        }
        cpus.releaseProcess();
    }
    tracer.end(root);

    // Close the connections, then drain the server before exit.
    clients = {};
    const std::uint64_t requests = served.server->requestsServed();
    const std::uint64_t proto_errors = served.server->protocolErrors();
    const std::uint64_t timeouts = served.server->timeouts();
    served.server->stop();

    std::uint64_t events = 0, trace_bytes = 0, catalog_bytes = 0;
    for (const Expected &e : expected) {
        events += e.events;
        trace_bytes += e.traceBytes;
        catalog_bytes += e.profileBytes;
    }

    if (untraced.empty()) {
        // Setup failed: nothing was measured, the result is the checks.
    } else if (!opt.trace) {
        // Rate and percentiles per pass (4000 round trips, so 40 beyond
        // the p99), then their interquartile mean over the passes:
        // pooling every request would let bursts of host noise set the
        // tail of the whole run, and a median would jump between the
        // speeds of the CPUs the passes ran on.
        std::vector<double> rate, p50, p99;
        for (const QueryPass &p : untraced) {
            std::vector<double> ms;
            for (const ClientStats &st : p.clients)
                for (const std::vector<double> &v : st.latencyUs)
                    for (double us : v)
                        ms.push_back(us * 1e-3);
            rate.push_back(static_cast<double>(ms.size()) / p.wall);
            p50.push_back(percentile(ms, 50));
            p99.push_back(percentile(ms, 99));
        }
        std::fprintf(stderr, "query_serve: %zu passes of %d round trips\n",
                     untraced.size(), kClients * kRequestsPerPass);
        r.set("throughput_per_s", interquartileMean(rate), "1/s");
        r.set("latency_p50_ms", interquartileMean(p50), "ms");
        r.set("latency_p99_ms", interquartileMean(p99), "ms");
        r.set("trace_bytes_per_event",
              static_cast<double>(trace_bytes) / static_cast<double>(events),
              "B/event");
    } else {
        // In-process rendering of each op, apart from transport.
        std::array<std::vector<double>, kNumOps> render_us;
        for (int rep = 0; rep < 5; ++rep) {
            for (std::size_t i = 0; i < n; ++i) {
                for (int op = 0; op < kNumOps; ++op) {
                    const std::string &fn =
                        expected[i].fnNames[static_cast<std::size_t>(rep) %
                                            expected[i].fnNames.size()];
                    Clock::time_point t0 = Clock::now();
                    std::string text =
                        render(static_cast<QueryOp>(op), profiles[i], fn);
                    render_us[op].push_back(
                        static_cast<double>(nsBetween(t0, Clock::now())) *
                        1e-3);
                }
            }
        }
        std::array<std::vector<double>, kNumOps> server_us;
        std::uint64_t done = 0, bytes = 0;
        std::vector<double> traced_wall, untraced_wall;
        for (const QueryPass &p : traced) {
            traced_wall.push_back(p.wall);
            for (const ClientStats &st : p.clients) {
                done += st.requests;
                bytes += st.bytes;
                for (int op = 0; op < kNumOps; ++op)
                    server_us[op].insert(server_us[op].end(),
                                         st.latencyUs[op].begin(),
                                         st.latencyUs[op].end());
            }
        }
        for (const QueryPass &p : untraced)
            untraced_wall.push_back(p.wall);
        double transport = 0.0;
        for (int op = 0; op < kNumOps; ++op) {
            const std::string name = kOpNames[op];
            const double p50 = percentile(server_us[op], 50);
            const double rendered = median(render_us[op]);
            r.set("core.render_" + name + "_us", rendered, "us");
            r.set("server." + name + "_p50_us", p50, "us");
            r.set("server." + name + "_p99_us",
                  percentile(server_us[op], 99), "us");
            transport += (p50 - rendered) / static_cast<double>(kNumOps);
        }
        r.set("server.transport_us", transport, "us");
        r.set("server.response_bytes_per_req",
              static_cast<double>(bytes) / static_cast<double>(done), "B");
        r.set("server.catalog_load_s", median(load), "s");
        r.set("server.catalog_bytes", static_cast<double>(catalog_bytes),
              "B");
        r.set("server.requests", static_cast<double>(requests), "count");
        r.set("server.protocol_errors", static_cast<double>(proto_errors),
              "count");
        r.set("server.timeouts", static_cast<double>(timeouts), "count");
        r.set("trace.overhead_s",
              median(traced_wall) - median(untraced_wall), "s");
    }
    r.set("setup_s", median(setup), "s");
    return r;
}

} // namespace perfbench
