/**
 * @file
 * replay_analyze: the paper's release model, "collect once, analyze
 * many". Setup records each program's trace with a profiler attached
 * live; the timed part replays the file into a fresh profiler (re-use
 * tracking and event collection on), then builds the CDFG, partitions
 * it, finds the critical path and renders the profile and event file.
 * The replayed renderings must equal the live ones byte for byte.
 */

#include <fstream>
#include <sstream>

#include "cdfg/cdfg.hh"
#include "cdfg/partitioner.hh"
#include "common.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "critpath/critical_path.hh"
#include "vg/trace_io.hh"

namespace perfbench {

namespace {

using namespace sigil;

core::SigilConfig
replayConfig()
{
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    cfg.collectEvents = true;
    return cfg;
}

/** What the setup recording left for the timed replays to match. */
struct Recorded
{
    std::string path;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::string profileText;
    std::string eventsText;
};

Recorded
record(const Program &p, const Options &opt)
{
    Recorded rec;
    rec.path = opt.tmpDir + "/" + p.name + ".trace";
    std::ofstream file(rec.path, std::ios::binary | std::ios::trunc);
    vg::Guest guest(p.name);
    vg::BinaryTraceRecorder recorder(file);
    core::SigilProfiler profiler(replayConfig());
    guest.addTool(&recorder);
    guest.addTool(&profiler);
    p.run(guest);
    guest.finish();
    file.close();
    rec.events = recorder.eventsWritten();
    rec.bytes = fileBytes(rec.path);
    std::ostringstream ps, es;
    core::writeProfile(ps, profiler.takeProfile());
    core::writeEvents(es, profiler.events());
    rec.profileText = ps.str();
    rec.eventsText = es.str();
    return rec;
}

struct ReplayPass
{
    /** Replay through takeProfile()/events(), per program. */
    std::vector<double> replaySeconds;
    /** Replay plus post-processing and rendering, per program. */
    std::vector<double> programSeconds;
    std::uint64_t events = 0;
    LayerSums layers;
};

ReplayPass
replayPass(const std::vector<Program> &programs,
           const std::vector<Recorded> &recorded, CpuRotation &cpus,
           Tracer &tracer, int parent, Result &r)
{
    const bool traced = tracer.enabled();
    ReplayPass pass;
    LayerSums &l = pass.layers;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Program &p = programs[i];
        const Recorded &rec = recorded[i];
        cpus.next();
        int span = tracer.begin(p.name, parent);

        vg::Guest guest(p.name);
        core::SigilProfiler profiler(replayConfig());
        TimedTool timed_prof(profiler);
        guest.addTool(traced ? static_cast<vg::Tool *>(&timed_prof)
                             : &profiler);

        Clock::time_point t0 = Clock::now();
        vg::ReplayReport report =
            vg::replayTraceFile(rec.path, guest, vg::ReplayOptions{});
        Clock::time_point t1 = Clock::now();
        core::SigilProfile profile = profiler.takeProfile();
        const core::EventTrace &events = profiler.events();
        Clock::time_point t2 = Clock::now();
        cdfg::Cdfg graph = cdfg::Cdfg::build(profile);
        Clock::time_point t3 = Clock::now();
        cdfg::PartitionResult parts = cdfg::Partitioner().partition(graph);
        Clock::time_point t4 = Clock::now();
        critpath::CriticalPathResult cp = critpath::analyze(events);
        Clock::time_point t5 = Clock::now();
        std::ostringstream ps, es;
        core::writeProfile(ps, profile);
        core::writeEvents(es, events);
        Clock::time_point t6 = Clock::now();

        r.check(report.ok() && report.eventsDelivered == rec.events,
                "replay_analyze: " + p.name + ": " + report.summary());
        r.check(ps.str() == rec.profileText,
                "replay_analyze: " + p.name +
                    " replayed profile differs from the live one");
        r.check(es.str() == rec.eventsText,
                "replay_analyze: " + p.name +
                    " replayed event file differs from the live one");

        pass.replaySeconds.push_back(secondsBetween(t0, t2));
        pass.programSeconds.push_back(secondsBetween(t0, t6));
        pass.events += rec.events;
        if (!traced)
            continue;

        // Decode cost alone: the same file into a tool-less guest.
        Clock::time_point p0 = Clock::now();
        {
            vg::Guest bare(p.name);
            vg::replayTraceFile(rec.path, bare, vg::ReplayOptions{});
        }
        Clock::time_point p1 = Clock::now();

        const double busy = static_cast<double>(timed_prof.busyNs()) * 1e-9;
        tracer.add("vg.replay", span, t0, t1);
        int busy_span = tracer.add("core.busy", span, t0,
                                   t0 + std::chrono::nanoseconds(
                                            timed_prof.busyNs()));
        tracer.attr(busy_span, "calls",
                    static_cast<double>(timed_prof.calls()));
        tracer.add("core.take_profile", span, t1, t2);
        tracer.add("cdfg.build", span, t2, t3);
        tracer.add("cdfg.partition", span, t3, t4);
        tracer.add("critpath.analyze", span, t4, t5);
        tracer.add("core.render", span, t5, t6);
        tracer.add("vg.parse", span, p0, p1);
        tracer.attr(span, "events", static_cast<double>(rec.events));
        tracer.end(span);

        const vg::GuestCounters &c = guest.counters();
        const shadow::ShadowStats st = profiler.shadowStats();
        l["vg.events"] += static_cast<double>(rec.events);
        l["vg.shadowed_bytes"] +=
            static_cast<double>(c.readBytes + c.writeBytes);
        l["vg.trace_bytes"] += static_cast<double>(rec.bytes);
        l["vg.parse_s"] += secondsBetween(p0, p1);
        l["vg.replay_self_s"] += secondsBetween(t0, t1) - busy;
        l["core.busy_s"] += busy;
        l["core.finish_s"] +=
            static_cast<double>(timed_prof.finishNs()) * 1e-9;
        l["core.take_profile_s"] += secondsBetween(t1, t2);
        l["core.edges"] += static_cast<double>(profile.edges.size());
        l["core.event_records"] += static_cast<double>(events.size());
        l["shadow.chunks_allocated"] +=
            static_cast<double>(st.chunksAllocated);
        l["shadow.chunks_peak"] += static_cast<double>(st.chunksPeak);
        l["shadow.cold_arrays"] += static_cast<double>(st.coldArraysLive);
        l["shadow.peak_bytes"] += static_cast<double>(st.bytesPeak);
        l["core.render_s"] += secondsBetween(t5, t6);
        l["cdfg.build_s"] += secondsBetween(t2, t3);
        l["cdfg.partition_s"] += secondsBetween(t3, t4);
        l["cdfg.nodes"] += static_cast<double>(graph.nodes().size());
        l["cdfg.candidates"] += static_cast<double>(parts.candidates.size());
        l["critpath.analyze_s"] += secondsBetween(t4, t5);
        l["critpath.path_nodes"] += static_cast<double>(cp.path.size());
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
runReplayAnalyze(const Options &opt, Tracer &tracer)
{
    Result r;
    const std::vector<Program> programs = programSet(opt.seed);
    const std::size_t n = programs.size();

    std::vector<Recorded> recorded(n);
    std::vector<double> setup;
    CpuRotation cpus;
    while (moreSetup(setup)) {
        cpus.next();
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            recorded[i] = record(programs[i], opt);
        setup.push_back(secondsSince(t0));
    }

    const std::map<std::string, std::string> digests =
        readDigests(opt.digestsPath);
    for (std::size_t i = 0; i < n; ++i) {
        if (!programs[i].bundled)
            continue;
        auto it = digests.find(programs[i].name);
        const std::string got = digestHex(recorded[i].profileText);
        r.check(it != digests.end() && it->second == got,
                "replay_analyze: " + programs[i].name +
                    " profile digest " + got + " does not match " +
                    (it == digests.end() ? "(none committed)"
                                         : it->second) +
                    " in " + opt.digestsPath);
    }

    Tracer off(false);
    int root = tracer.begin("replay_analyze", -1);
    std::vector<ReplayPass> untraced, traced;
    Clock::time_point start = Clock::now();
    const int min_passes = opt.trace ? 2 : 1;
    for (int k = 0; k < min_passes || secondsSince(start) < opt.seconds;
         ++k) {
        const bool with_trace = opt.trace && k % 2 == 1;
        Tracer &t = with_trace ? tracer : off;
        int span = t.begin("pass", root);
        ReplayPass p = replayPass(programs, recorded, cpus, t, span, r);
        t.end(span);
        (with_trace ? traced : untraced).push_back(std::move(p));
    }
    tracer.end(root);

    std::vector<std::vector<double>> untraced_s, replay_s, traced_s;
    for (const ReplayPass &p : untraced) {
        untraced_s.push_back(p.programSeconds);
        replay_s.push_back(p.replaySeconds);
    }
    if (!opt.trace) {
        std::uint64_t bytes = 0;
        for (const Recorded &rec : recorded)
            bytes += rec.bytes;
        std::vector<double> per_program_ms = meanPerProgram(untraced_s);
        for (double &v : per_program_ms)
            v *= 1e3;
        const double events = static_cast<double>(untraced.front().events);
        r.set("throughput_per_s", events / sum(meanPerProgram(replay_s)),
              "1/s");
        r.set("latency_p50_ms", percentile(per_program_ms, 50), "ms");
        r.set("latency_p99_ms", percentile(per_program_ms, 99), "ms");
        r.set("trace_bytes_per_event", static_cast<double>(bytes) / events,
              "B/event");
    } else {
        std::vector<LayerSums> layers;
        for (const ReplayPass &p : traced) {
            layers.push_back(p.layers);
            traced_s.push_back(p.programSeconds);
        }
        setLayerMedians(r, layers);
        r.set("trace.overhead_s",
              sum(meanPerProgram(traced_s)) -
                  sum(meanPerProgram(untraced_s)),
              "s");
    }
    r.set("setup_s", median(setup), "s");
    return r;
}

} // namespace perfbench
