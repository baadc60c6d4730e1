/**
 * @file
 * Shared harness code for the per-figure benchmark binaries: runs a
 * workload under a selectable tool stack, with wall-clock timing and
 * all profiles captured.
 */

#ifndef SIGIL_BENCH_BENCH_COMMON_HH
#define SIGIL_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cg/cg_tool.hh"
#include "core/sigil_profiler.hh"
#include "workloads/workload.hh"

namespace sigil::bench {

/** Which tools are attached for a run. */
enum class Mode {
    Native,    ///< no instrumentation tools (slowdown baseline)
    Callgrind, ///< cg cost model only
    Sigil,     ///< cg + Sigil, baseline function-level profiling
    SigilReuse, ///< cg + Sigil with re-use tracking
    SigilEvents, ///< cg + Sigil with re-use + event collection
    SigilLines, ///< cg + Sigil shadowing 64-byte lines
};

/** Everything a figure harness might need from one run. */
struct RunOutput
{
    double seconds = 0.0;
    vg::GuestCounters counters;
    core::SigilProfile profile;   // valid for Sigil* modes
    cg::CgProfile cgProfile;      // valid for non-Native modes
    core::EventTrace events;      // valid for SigilEvents
    std::uint64_t shadowPeakBytes = 0;
};

/** Run a workload once under the given mode, timing the run. */
inline RunOutput
runWorkload(const workloads::Workload &w, workloads::Scale scale,
            Mode mode, std::size_t max_shadow_chunks = 0)
{
    RunOutput out;
    vg::Guest guest(w.name);

    std::unique_ptr<cg::CgTool> cg_tool;
    std::unique_ptr<core::SigilProfiler> sigil_tool;

    if (mode != Mode::Native) {
        cg_tool = std::make_unique<cg::CgTool>();
        guest.addTool(cg_tool.get());
    }
    if (mode == Mode::Sigil || mode == Mode::SigilReuse ||
        mode == Mode::SigilEvents || mode == Mode::SigilLines) {
        core::SigilConfig cfg;
        cfg.collectReuse = mode != Mode::Sigil;
        cfg.collectEvents = mode == Mode::SigilEvents;
        cfg.granularityShift = mode == Mode::SigilLines ? 6 : 0;
        cfg.maxShadowChunks = max_shadow_chunks;
        sigil_tool = std::make_unique<core::SigilProfiler>(cfg);
        guest.addTool(sigil_tool.get());
    }

    auto start = std::chrono::steady_clock::now();
    w.run(guest, scale);
    guest.finish();
    auto end = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(end - start).count();

    out.counters = guest.counters();
    if (cg_tool)
        out.cgProfile = cg_tool->takeProfile();
    if (sigil_tool) {
        out.profile = sigil_tool->takeProfile();
        out.events = sigil_tool->events();
        out.shadowPeakBytes = sigil_tool->shadowPeakBytes();
    }
    return out;
}

/** Best-of-n wall time for a mode (timing noise control). */
inline double
bestSeconds(const workloads::Workload &w, workloads::Scale scale,
            Mode mode, int reps = 3)
{
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        RunOutput r = runWorkload(w, scale, mode);
        if (r.seconds < best)
            best = r.seconds;
    }
    return best;
}

/**
 * Best-of-rounds wall time of several modes, run in interleaved
 * rounds: each round runs every mode once, in the order given, and each
 * mode keeps its best time. A slow phase of the host then hits every
 * mode of a round instead of one mode's back-to-back burst, so the
 * ratios between the modes' bests stay comparable.
 */
inline std::vector<double>
bestSecondsInterleaved(const workloads::Workload &w, workloads::Scale scale,
                       const std::vector<Mode> &modes, int rounds)
{
    std::vector<double> best(modes.size(), 1e300);
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < modes.size(); ++i) {
            best[i] =
                std::min(best[i], runWorkload(w, scale, modes[i]).seconds);
        }
    }
    return best;
}

/** Print a standard figure header. */
inline void
figureHeader(const char *figure, const char *caption)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure, caption);
    std::printf("==============================================================\n");
}

} // namespace sigil::bench

#endif // SIGIL_BENCH_BENCH_COMMON_HH
