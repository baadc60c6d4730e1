/**
 * @file
 * Shared harness of the end-to-end benchmark: the program set, the
 * timed tool wrapper, the in-memory span recorder and the metric
 * report every workload fills in.
 *
 * The benchmark drives the product paths with their default settings
 * (vg::GuestConfig{}, default replay options, server::ServerConfig{}
 * apart from the socket path). It fixes only the analysis modes of
 * core::SigilConfig that the paper defines. Engine knobs stay unset on
 * purpose: a mechanism is measured here once it becomes the default.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "vg/guest.hh"
#include "vg/tool.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nsBetween(a, b)) * 1e-9;
}

/** Seconds elapsed since t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** One program of the set: a name and a body that drives a guest. */
struct Program
{
    std::string name;
    /** Runs the program's events; the caller calls guest.finish(). */
    std::function<void(sigil::vg::Guest &)> run;
    /** True for the bundled programs, whose profiles have digests. */
    bool bundled = true;
};

/**
 * The program set every workload runs: the bundled canneal, dedup,
 * facesim and vips at one fixed scale, then synth_wide generated from
 * the seed.
 */
std::vector<Program> programSet(std::uint64_t seed);

/**
 * Round-robin placement of the calling thread over the CPUs the process
 * may use. On the host this benchmark was tuned on, each virtual CPU
 * runs a thread at one of two speeds, up to 2x apart, independently of
 * the other CPUs and for seconds at a time, while the scheduler leaves
 * a lone busy thread on one CPU for a whole run. Moving each timed
 * program run to the next CPU makes every run sample every CPU.
 */
class CpuRotation
{
  public:
    CpuRotation();

    /**
     * Move the calling thread to the next CPU, then give it back its
     * whole affinity mask: it stays where it was moved while busy, and
     * threads it starts may still use every CPU.
     */
    void next();

    /**
     * Move every thread of the process to the next CPU and keep them
     * there; threads started later inherit the one-CPU mask. A client
     * and the server thread answering it then hand each request over on
     * a CPU that is awake, instead of waking an idle one.
     */
    void pinProcess();

    /** Give every thread of the process its whole mask back. */
    void releaseProcess();

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Per-run scratch directory (traces, socket), relative to cwd. */
    std::string tmpDir;
    /** Committed digests of the bundled programs' rendered profiles. */
    std::string digestsPath;
    /** Where the traced run writes its spans (JSON lines). */
    std::string spansPath;
};

/**
 * In-memory span recorder. Spans carry a name, start and end (ns since
 * the recorder was created) and the index of their parent span (-1 for
 * a root). Disabled recorders record nothing, so untraced runs pay
 * only a branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its id (-1 when disabled). */
    int begin(const std::string &name, int parent);

    /** Close a span opened by begin(). */
    void end(int id);

    /** Record a finished span with explicit bounds. */
    int add(const std::string &name, int parent, Clock::time_point start,
            Clock::time_point end);

    /** Attach a numeric attribute (a count or a per-program value). */
    void attr(int id, const std::string &key, double value);

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path, const std::string &manifest) const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::vector<std::pair<std::string, double>> attrs;
    };

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Forwarding tool that times the wrapped tool from outside: every
 * callback, attach, sync and finish is passed on unchanged and its
 * duration added to the busy total. finish() is also kept apart
 * because it carries the profiler's final sweep.
 */
class TimedTool : public sigil::vg::Tool
{
  public:
    explicit TimedTool(sigil::vg::Tool &inner) : inner_(inner) {}

    void attach(const sigil::vg::Guest &guest) override;
    void processBatch(const sigil::vg::EventBuffer &batch) override;
    void fnEnter(sigil::vg::ContextId ctx, sigil::vg::CallNum call) override;
    void fnLeave(sigil::vg::ContextId ctx, sigil::vg::CallNum call) override;
    void memRead(sigil::vg::Addr addr, unsigned size) override;
    void memWrite(sigil::vg::Addr addr, unsigned size) override;
    void op(std::uint64_t iops, std::uint64_t flops) override;
    void branch(bool taken) override;
    void threadSwitch(sigil::vg::ThreadId tid) override;
    void barrier() override;
    void roi(bool active) override;
    void sync() override;
    void finish() override;

    /** Summed duration of every forwarded call, finish() included. */
    std::int64_t busyNs() const { return busyNs_; }
    /** Duration of the forwarded finish() alone. */
    std::int64_t finishNs() const { return finishNs_; }
    /** Forwarded calls. */
    std::uint64_t calls() const { return calls_; }

  private:
    template <typename F> void timed(F &&f);

    sigil::vg::Tool &inner_;
    std::int64_t busyNs_ = 0;
    std::int64_t finishNs_ = 0;
    std::uint64_t calls_ = 0;
};

/** Counts the events a guest dispatches (the guest's retired events). */
class CountingTool : public sigil::vg::Tool
{
  public:
    void fnEnter(sigil::vg::ContextId, sigil::vg::CallNum) override { ++n; }
    void fnLeave(sigil::vg::ContextId, sigil::vg::CallNum) override { ++n; }
    void memRead(sigil::vg::Addr, unsigned) override { ++n; }
    void memWrite(sigil::vg::Addr, unsigned) override { ++n; }
    void op(std::uint64_t, std::uint64_t) override { ++n; }
    void branch(bool) override { ++n; }
    void threadSwitch(sigil::vg::ThreadId) override { ++n; }
    void barrier() override { ++n; }
    void roi(bool) override { ++n; }

    std::uint64_t n = 0;
};

/**
 * Cost of one empty timed callback: a TimedTool around a tool that
 * does nothing, called directly. Lets layer busy times be read net of
 * the clock reads.
 */
double timedCallOverheadNs();

/** Metrics of one run plus the operation accounting. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), printed in name order. */
    std::map<std::string, std::pair<double, std::string>> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count one checked operation; logs the failure when !ok. */
    void check(bool ok, const std::string &what);
};

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double percentile(std::vector<double> samples, double p);

/** Median of unsorted samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * Mean of the middle half of the sorted samples (0 when empty). It moves
 * smoothly with the share of samples in each of two modes, as a mean
 * does, and ignores a quarter of outliers at either end, as a median
 * does.
 */
double interquartileMean(std::vector<double> samples);

/** Sum of the samples. */
double sum(const std::vector<double> &samples);

/** Arithmetic mean of the samples (0 when empty). */
double mean(const std::vector<double> &samples);

/**
 * Per program, its mean time over the passes: passes[k][i] is program
 * i's time in pass k. Each program's time is bimodal on the host this
 * benchmark was tuned on (see CpuRotation); a median jumps between the
 * modes from run to run, a mean moves smoothly with the share of time
 * spent in each.
 */
std::vector<double> meanPerProgram(
    const std::vector<std::vector<double>> &passes);

/** Process high-water resident set size, in MiB. */
double peakRssMb();

/** Size of a file in bytes (0 when it cannot be read). */
std::uint64_t fileBytes(const std::string &path);

/** s as a quoted JSON string (control characters dropped). */
std::string jsonString(const std::string &s);

/** 64-bit FNV-1a digest, printed as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/** program -> digest, from the committed digest file. */
std::map<std::string, std::string> readDigests(const std::string &path);

/**
 * Every per-layer metric the traced run reports, with its unit, so
 * each workload prints the full set; layers a workload does not call
 * read 0.
 */
void zeroPerLayerMetrics(Result &r);

/** True when name is one of the per-layer metrics. */
bool isPerLayerMetric(const std::string &name);

/** Per-layer totals over the program set, for one traced pass. */
using LayerSums = std::map<std::string, double>;

/** Sets each per-layer metric found in the passes to its median. */
void setLayerMedians(Result &r, const std::vector<LayerSums> &passes);

/** @name Workloads
 *
 * Each runs setup, then timed passes until opt.seconds have elapsed
 * (at least one), checking every output. With opt.trace set, untraced
 * and traced passes alternate so the run also yields the tracing
 * overhead.
 */
/// @{
Result runLiveCollect(const Options &opt, Tracer &tracer);
Result runReplayAnalyze(const Options &opt, Tracer &tracer);
Result runQueryServe(const Options &opt, Tracer &tracer);
/// @}

/**
 * Setup repeats at least kSetupReps times and until kSetupSeconds have
 * passed; setup_s is the median repetition.
 */
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 2.0;

/** True while another setup repetition is due. */
inline bool
moreSetup(const std::vector<double> &setup)
{
    return static_cast<int>(setup.size()) < kSetupReps ||
           sum(setup) < kSetupSeconds;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
