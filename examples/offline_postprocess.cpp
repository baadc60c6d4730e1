/**
 * @file
 * The paper's release model, end to end: profile once, write everything
 * to disk (raw event trace, aggregate profile, event file), then run
 * every analysis purely from the files — the instrumented binary never
 * runs again. Finally, replay the raw trace into a second profiler
 * configuration (line granularity) to show one collection feeding a
 * different analysis mode.
 *
 * Every phase that reads a file checks the structured error channel:
 * an unreadable or corrupt input ends the run with a non-zero exit
 * code and the TraceError message on stderr, never with a report
 * rendered over partial state.
 *
 * Usage: example_offline_postprocess [workload] [output_dir]
 *        example_offline_postprocess --replay TRACE
 *
 * The second form skips collection and replays an existing trace file
 * (salvage policy, line granularity) — the post-mortem entry point,
 * and the error-path regression test's hook: pointing it at a missing
 * or corrupt file must exit non-zero.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/cdfg.hh"
#include "cdfg/partitioner.hh"
#include "cg/cg_tool.hh"
#include "core/profile_diff.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "critpath/critical_path.hh"
#include "support/logging.hh"
#include "vg/trace_io.hh"
#include "workloads/workload.hh"

using namespace sigil;

namespace {

/**
 * Salvage-replay one existing trace in line mode; the post-mortem
 * path. Returns the process exit code: an unrecoverable TraceError
 * (missing file, bad magic, torn header) is reported and fails the
 * run instead of being summarized away.
 */
int
replayOnly(const char *trace_path)
{
    vg::Guest guest("replay");
    core::SigilConfig cfg;
    cfg.granularityShift = 6;
    core::SigilProfiler profiler(cfg);
    guest.addTool(&profiler);
    vg::ReplayOptions ropt;
    ropt.policy = vg::ReplayPolicy::Salvage;
    vg::ReplayReport report =
        vg::replayTraceFile(trace_path, guest, ropt);
    if (!report.ok()) {
        std::fprintf(stderr, "error: cannot replay %s: %s\n",
                     trace_path, report.error->message().c_str());
        return 1;
    }
    // Salvage never "fails" on damage it can skip — but a replay that
    // recovered zero events from a corrupted input has salvaged
    // nothing. Reporting that as success would be exactly the
    // report-over-partial-state bug this path exists to prevent.
    if (report.eventsDelivered == 0 && report.sawCorruption()) {
        vg::TraceError fallback;
        fallback.cause = vg::TraceErrorCause::Truncated;
        fallback.detail = "no decodable events in the file";
        const vg::TraceError &cause =
            report.errors.empty() ? fallback : report.errors.front();
        std::fprintf(stderr,
                     "error: nothing salvageable in %s: %s\n",
                     trace_path, cause.message().c_str());
        return 1;
    }
    std::printf("salvage replay of %s: %s\n", trace_path,
                report.toString().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc)
            return replayOnly(argv[++i]);
        positional.push_back(argv[i]);
    }
    const char *name = positional.size() >= 1 ? positional[0] : "dedup";
    std::string dir =
        positional.size() >= 2 ? positional[1] : "/tmp/sigil_out";
    const workloads::Workload *w = workloads::findWorkload(name);
    if (w == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", name);
        return 1;
    }

    std::string trace_path = dir + "/" + w->name + ".trace";
    std::string profile_path = dir + "/" + w->name + ".profile";
    std::string events_path = dir + "/" + w->name + ".events";

    // Phase 1: the one expensive instrumented run. The trace goes
    // through a DurableTraceWriter — bytes land in `<trace>.tmp`,
    // fsync every 4 MiB, and the atomic rename in finalize() only
    // publishes the final path once the shutdown trailer is on disk.
    {
        vg::DurableTraceWriter durable(trace_path, 4u << 20);
        if (!durable.ok())
            fatal("cannot write to %s: %s (create the directory first)",
                  trace_path.c_str(), durable.errorDetail().c_str());
        vg::Guest guest(w->name);
        vg::BinaryTraceRecorder recorder(durable.stream());
        core::SigilConfig cfg;
        cfg.collectReuse = true;
        cfg.collectEvents = true;
        core::SigilProfiler profiler(cfg);
        guest.addTool(&recorder);
        guest.addTool(&profiler);
        w->run(guest, workloads::Scale::SimSmall);
        guest.finish();
        if (!durable.finalize())
            fatal("finalize failed for %s: %s", trace_path.c_str(),
                  durable.errorDetail().c_str());
        core::writeProfileFile(profile_path, profiler.takeProfile());
        core::writeEventsFile(events_path, profiler.events());
        std::printf("collected: %llu raw events (%llu fsyncs)\n",
                    static_cast<unsigned long long>(
                        recorder.eventsWritten()),
                    static_cast<unsigned long long>(durable.syncCount()));
        std::printf("  %s\n  %s\n  %s\n", trace_path.c_str(),
                    profile_path.c_str(), events_path.c_str());
    }

    // Phase 2: analyses purely from the files. The fault-tolerant
    // readers surface a corrupt or unreadable file as a TraceError —
    // position, cause, offending token — and the run fails before any
    // analysis could be computed over partial state.
    {
        std::ifstream profile_is(profile_path);
        vg::TraceError read_error;
        std::optional<core::SigilProfile> maybe_profile;
        if (profile_is)
            maybe_profile =
                core::tryReadProfile(profile_is, read_error);
        else
            read_error.detail = "cannot open " + profile_path;
        if (!maybe_profile) {
            std::fprintf(stderr, "error: cannot read %s: %s\n",
                         profile_path.c_str(),
                         read_error.message().c_str());
            return 1;
        }
        core::SigilProfile profile = std::move(*maybe_profile);
        cdfg::Cdfg graph = cdfg::Cdfg::build(profile);
        cdfg::PartitionResult parts =
            cdfg::Partitioner().partition(graph);
        std::printf("\nfrom %s: %zu accelerator candidates, %.1f%% "
                    "coverage\n",
                    profile_path.c_str(), parts.candidates.size(),
                    100.0 * parts.coverage);
        for (const cdfg::Candidate &c : parts.top(3)) {
            std::printf("  %-24s S_be=%.3f\n", c.displayName.c_str(),
                        c.breakevenSpeedup);
        }

        std::ifstream events_is(events_path);
        std::optional<core::EventTrace> maybe_events;
        if (events_is)
            maybe_events = core::tryReadEvents(events_is, read_error);
        else
            read_error.detail = "cannot open " + events_path;
        if (!maybe_events) {
            std::fprintf(stderr, "error: cannot read %s: %s\n",
                         events_path.c_str(),
                         read_error.message().c_str());
            return 1;
        }
        core::EventTrace events = std::move(*maybe_events);
        critpath::CriticalPathResult cp = critpath::analyze(events);
        std::printf("\nfrom %s: max function-level parallelism %.2fx\n",
                    events_path.c_str(), cp.maxParallelism);
    }

    // Phase 3: replay the raw trace into a different profiler mode.
    // replayTraceFile() maps the file and decodes it in place; a
    // trace in a format of an earlier release fails as bad magic.
    // Salvage mode tolerates a damaged file (a crash mid-recording, a
    // bad sector) and the report says exactly what was recovered and
    // whether the trace ends in a clean-shutdown trailer.
    {
        vg::Guest guest(w->name);
        core::SigilConfig cfg;
        cfg.granularityShift = 6; // line mode this time
        core::SigilProfiler profiler(cfg);
        guest.addTool(&profiler);
        vg::ReplayOptions ropt;
        ropt.policy = vg::ReplayPolicy::Salvage;
        vg::ReplayReport report =
            vg::replayTraceFile(trace_path, guest, ropt);
        // Salvage tolerates damage it can skip past, but a replay
        // that stopped on an unrecoverable TraceError (unreadable
        // file, bad magic) produced no usable profile — fail instead
        // of printing an analysis over partial state.
        if (!report.ok()) {
            std::fprintf(stderr, "error: cannot replay %s: %s\n",
                         trace_path.c_str(),
                         report.error->message().c_str());
            return 1;
        }
        std::printf("\nsalvage replay: %s\n", report.toString().c_str());
        core::SigilProfile lines = profiler.takeProfile();
        std::printf("replayed %llu events in 64B-line mode: line "
                    "re-use breakdown\n",
                    static_cast<unsigned long long>(
                        report.eventsDelivered));
        const BoundsHistogram &h = lines.lineReuseBreakdown;
        for (std::size_t i = 0; i < h.numBins(); ++i) {
            std::printf("  %-7s %5.1f%%\n", h.binLabel(i).c_str(),
                        100.0 * h.binFraction(i));
        }
    }
    return 0;
}
