/**
 * @file
 * live_collect: each program runs live through a default guest with
 * the cache simulator, the Sigil profiler in the paper's baseline mode
 * (Fig. 4 "Sigil": no re-use tracking) and a default-format binary
 * trace recorder writing to a file. This is the collection run a user
 * pays for once per application.
 */

#include <fstream>

#include "cg/cg_tool.hh"
#include "common.hh"
#include "core/sigil_profiler.hh"
#include "vg/trace_io.hh"

namespace perfbench {

namespace {

using namespace sigil;

struct LivePass
{
    /** First event to finish() returning, per program. */
    std::vector<double> programSeconds;
    std::uint64_t events = 0;
    std::uint64_t traceBytes = 0;
    LayerSums layers;
};

LivePass
livePass(const std::vector<Program> &programs,
         const std::vector<std::uint64_t> &expected, const Options &opt,
         CpuRotation &cpus, Tracer &tracer, int parent, Result &r)
{
    const bool traced = tracer.enabled();
    LivePass pass;
    LayerSums &l = pass.layers;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Program &p = programs[i];
        const std::string path = opt.tmpDir + "/" + p.name + ".trace";
        cpus.next();
        std::ofstream file(path, std::ios::binary | std::ios::trunc);

        vg::Guest guest(p.name);
        cg::CgTool cg;
        core::SigilConfig cfg;
        cfg.collectReuse = false;
        core::SigilProfiler profiler(cfg);
        vg::BinaryTraceRecorder recorder(file);
        TimedTool timed_cg(cg), timed_prof(profiler), timed_rec(recorder);
        if (traced) {
            guest.addTool(&timed_cg);
            guest.addTool(&timed_prof);
            guest.addTool(&timed_rec);
        } else {
            guest.addTool(&cg);
            guest.addTool(&profiler);
            guest.addTool(&recorder);
        }

        int span = tracer.begin(p.name, parent);
        Clock::time_point t0 = Clock::now();
        p.run(guest);
        guest.finish();
        Clock::time_point t1 = Clock::now();
        tracer.add("vg.run", span, t0, t1);
        file.flush();
        const auto bytes = static_cast<std::uint64_t>(file.tellp());

        r.check(static_cast<bool>(file), "live_collect: writing " + path);
        r.check(recorder.eventsWritten() == expected[i],
                "live_collect: " + p.name + " recorded " +
                    std::to_string(recorder.eventsWritten()) +
                    " events, guest retired " +
                    std::to_string(expected[i]));

        const double wall = secondsBetween(t0, t1);
        pass.programSeconds.push_back(wall);
        pass.events += expected[i];
        pass.traceBytes += bytes;
        if (!traced)
            continue;

        const double cg_s = static_cast<double>(timed_cg.busyNs()) * 1e-9;
        const double core_s =
            static_cast<double>(timed_prof.busyNs()) * 1e-9;
        const double rec_s = static_cast<double>(timed_rec.busyNs()) * 1e-9;
        for (auto [name, tool] :
             {std::pair{"cg.busy", &timed_cg},
              std::pair{"core.busy", &timed_prof},
              std::pair{"vg.record_busy", &timed_rec}}) {
            int s = tracer.add(name, span, t0,
                               t0 + std::chrono::nanoseconds(tool->busyNs()));
            tracer.attr(s, "calls", static_cast<double>(tool->calls()));
        }
        tracer.attr(span, "events", static_cast<double>(expected[i]));
        tracer.attr(span, "trace_bytes", static_cast<double>(bytes));
        tracer.end(span);

        const vg::GuestCounters &c = guest.counters();
        const shadow::ShadowStats st = profiler.shadowStats();
        l["vg.guest_self_s"] += wall - cg_s - core_s - rec_s;
        l["vg.events"] += static_cast<double>(expected[i]);
        l["vg.shadowed_bytes"] +=
            static_cast<double>(c.readBytes + c.writeBytes);
        l["vg.record_busy_s"] += rec_s;
        l["vg.trace_bytes"] += static_cast<double>(bytes);
        l["cg.busy_s"] += cg_s;
        l["core.busy_s"] += core_s;
        l["core.finish_s"] +=
            static_cast<double>(timed_prof.finishNs()) * 1e-9;
        l["shadow.chunks_allocated"] +=
            static_cast<double>(st.chunksAllocated);
        l["shadow.chunks_peak"] += static_cast<double>(st.chunksPeak);
        l["shadow.cold_arrays"] += static_cast<double>(st.coldArraysLive);
        l["shadow.peak_bytes"] += static_cast<double>(st.bytesPeak);
    }
    if (traced) {
        l["core.ns_per_event"] = l["core.busy_s"] * 1e9 / l["vg.events"];
        l["core.ns_per_shadowed_byte"] =
            l["core.busy_s"] * 1e9 / l["vg.shadowed_bytes"];
    }
    return pass;
}

} // namespace

Result
runLiveCollect(const Options &opt, Tracer &tracer)
{
    Result r;
    const std::vector<Program> programs = programSet(opt.seed);
    const std::size_t n = programs.size();

    // Setup: each program's retired-event count (a counting tool on
    // the guest's dispatch) and one tool-less native run.
    std::vector<std::uint64_t> expected(n);
    std::vector<std::vector<double>> native(n);
    std::vector<double> setup;
    CpuRotation cpus;
    while (moreSetup(setup)) {
        cpus.next();
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            {
                vg::Guest guest(programs[i].name);
                Clock::time_point s = Clock::now();
                programs[i].run(guest);
                guest.finish();
                native[i].push_back(secondsSince(s));
            }
            vg::Guest guest(programs[i].name);
            CountingTool count;
            guest.addTool(&count);
            programs[i].run(guest);
            guest.finish();
            expected[i] = count.n;
        }
        setup.push_back(secondsSince(t0));
    }

    Tracer off(false);
    int root = tracer.begin("live_collect", -1);
    std::vector<LivePass> untraced, traced;
    Clock::time_point start = Clock::now();
    const int min_passes = opt.trace ? 2 : 1;
    for (int k = 0; k < min_passes || secondsSince(start) < opt.seconds;
         ++k) {
        const bool with_trace = opt.trace && k % 2 == 1;
        Tracer &t = with_trace ? tracer : off;
        int span = t.begin("pass", root);
        LivePass p = livePass(programs, expected, opt, cpus, t, span, r);
        t.end(span);
        (with_trace ? traced : untraced).push_back(std::move(p));
    }
    tracer.end(root);

    std::vector<std::vector<double>> untraced_s, traced_s;
    for (const LivePass &p : untraced)
        untraced_s.push_back(p.programSeconds);
    const double untraced_wall = sum(meanPerProgram(untraced_s));
    if (!opt.trace) {
        std::vector<double> per_program_ms = meanPerProgram(untraced_s);
        for (double &v : per_program_ms)
            v *= 1e3;
        const LivePass &last = untraced.back();
        r.set("throughput_per_s",
              static_cast<double>(last.events) / untraced_wall, "1/s");
        r.set("latency_p50_ms", percentile(per_program_ms, 50), "ms");
        r.set("latency_p99_ms", percentile(per_program_ms, 99), "ms");
        r.set("trace_bytes_per_event",
              static_cast<double>(last.traceBytes) /
                  static_cast<double>(last.events),
              "B/event");
    } else {
        std::vector<LayerSums> layers;
        for (const LivePass &p : traced) {
            layers.push_back(p.layers);
            traced_s.push_back(p.programSeconds);
        }
        setLayerMedians(r, layers);
        std::vector<double> native_s;
        for (const std::vector<double> &runs : native)
            native_s.push_back(mean(runs));
        r.set("workloads.native_s", sum(native_s), "s");
        r.set("vg.slowdown_x", untraced_wall / sum(native_s), "x");
        r.set("trace.overhead_s",
              sum(meanPerProgram(traced_s)) - untraced_wall, "s");
    }
    r.set("setup_s", median(setup), "s");
    return r;
}

} // namespace perfbench
