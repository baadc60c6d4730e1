#include "common.hh"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/rng.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

/**
 * One scale for every bundled program. A run needs many passes to
 * sample every CPU of a host whose CPUs change speed from second to
 * second (see CpuRotation): at simsmall a live pass takes under a
 * second, at simmedium about three.
 */
constexpr sigil::workloads::Scale kScale =
    sigil::workloads::Scale::SimSmall;

/** synth_wide loop iterations; about 13 of every 16 are accesses. */
constexpr int kSynthIters = 50000;

/**
 * The address-randomized regime of the sharded-replay microbenchmark:
 * a 16 MiB window, random 32-255 B reads and writes, four functions
 * nested up to depth 8. Everything but the shape comes from the seed.
 */
void
runSynthWide(sigil::vg::Guest &g, std::uint64_t seed)
{
    sigil::Rng rng(seed);
    sigil::vg::FunctionId fns[4] = {g.fn("a"), g.fn("b"), g.fn("c"),
                                    g.fn("d")};
    g.enter("main");
    for (int i = 0; i < kSynthIters; ++i) {
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
            sigil::vg::Addr addr = 0x100000 + rng.nextBounded(1u << 24);
            unsigned size = 32 + static_cast<unsigned>(rng.nextBounded(224));
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
}

const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"vg.guest_self_s", "s"},
    {"vg.events", "count"},
    {"vg.shadowed_bytes", "B"},
    {"workloads.native_s", "s"},
    {"vg.slowdown_x", "x"},
    {"vg.record_busy_s", "s"},
    {"vg.trace_bytes", "B"},
    {"vg.parse_s", "s"},
    {"vg.replay_self_s", "s"},
    {"cg.busy_s", "s"},
    {"core.busy_s", "s"},
    {"core.ns_per_event", "ns"},
    {"core.ns_per_shadowed_byte", "ns"},
    {"core.finish_s", "s"},
    {"core.take_profile_s", "s"},
    {"core.edges", "count"},
    {"core.event_records", "count"},
    {"shadow.chunks_allocated", "count"},
    {"shadow.chunks_peak", "count"},
    {"shadow.cold_arrays", "count"},
    {"shadow.peak_bytes", "B"},
    {"core.render_s", "s"},
    {"core.render_function_us", "us"},
    {"core.render_summary_us", "us"},
    {"core.render_edges_us", "us"},
    {"core.render_profile_us", "us"},
    {"core.render_partition_us", "us"},
    {"cdfg.build_s", "s"},
    {"cdfg.partition_s", "s"},
    {"cdfg.nodes", "count"},
    {"cdfg.candidates", "count"},
    {"critpath.analyze_s", "s"},
    {"critpath.path_nodes", "count"},
    {"server.function_p50_us", "us"},
    {"server.function_p99_us", "us"},
    {"server.summary_p50_us", "us"},
    {"server.summary_p99_us", "us"},
    {"server.edges_p50_us", "us"},
    {"server.edges_p99_us", "us"},
    {"server.partition_p50_us", "us"},
    {"server.partition_p99_us", "us"},
    {"server.profile_p50_us", "us"},
    {"server.profile_p99_us", "us"},
    {"server.transport_us", "us"},
    {"server.response_bytes_per_req", "B"},
    {"server.catalog_load_s", "s"},
    {"server.catalog_bytes", "B"},
    {"server.requests", "count"},
    {"server.protocol_errors", "count"},
    {"server.timeouts", "count"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_ns_per_call", "ns"},
};

/** Nothing to do: the inner tool of the clock-cost probe. */
class NullTool : public sigil::vg::Tool
{
};

} // namespace

std::vector<Program>
programSet(std::uint64_t seed)
{
    std::vector<Program> set;
    for (const char *name : {"canneal", "dedup", "facesim", "vips"}) {
        const sigil::workloads::Workload *w =
            sigil::workloads::findWorkload(name);
        set.push_back(Program{
            name, [w](sigil::vg::Guest &g) { w->run(g, kScale); }, true});
    }
    set.push_back(Program{
        "synth_wide",
        [seed](sigil::vg::Guest &g) { runSynthWide(g, seed); }, false});
    return set;
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed_))
            cpus_.push_back(cpu);
}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0)
        sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

namespace {

/** Sets the affinity mask of every thread of the process. */
void
setProcessAffinity(const cpu_set_t &mask)
{
    DIR *tasks = opendir("/proc/self/task");
    if (tasks == nullptr) {
        sched_setaffinity(0, sizeof(mask), &mask);
        return;
    }
    while (const dirent *task = readdir(tasks))
        if (task->d_name[0] != '.')
            sched_setaffinity(static_cast<pid_t>(std::atoi(task->d_name)),
                              sizeof(mask), &mask);
    closedir(tasks);
}

} // namespace

void
CpuRotation::pinProcess()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    setProcessAffinity(one);
}

void
CpuRotation::releaseProcess()
{
    if (cpus_.size() >= 2)
        setProcessAffinity(allowed_);
}

int
Tracer::begin(const std::string &name, int parent)
{
    if (!enabled_)
        return -1;
    Clock::time_point now = Clock::now();
    return add(name, parent, now, now);
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].endNs =
            nsBetween(epoch_, Clock::now());
}

int
Tracer::add(const std::string &name, int parent, Clock::time_point start,
            Clock::time_point end)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, parent, nsBetween(epoch_, start),
                          nsBetween(epoch_, end), {}});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::attr(int id, const std::string &key, double value)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].attrs.emplace_back(key, value);
}

bool
Tracer::write(const std::string &path, const std::string &manifest) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << manifest << '\n';
    std::string line;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        line = "{\"id\": " + std::to_string(i) +
               ", \"name\": " + jsonString(s.name) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"start_ns\": " + std::to_string(s.startNs) +
               ", \"end_ns\": " + std::to_string(s.endNs);
        for (const auto &[key, value] : s.attrs) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", value);
            line += ", " + jsonString(key) + ": " + num;
        }
        line += "}\n";
        os << line;
    }
    return static_cast<bool>(os);
}

template <typename F>
void
TimedTool::timed(F &&f)
{
    Clock::time_point t0 = Clock::now();
    f();
    busyNs_ += nsBetween(t0, Clock::now());
    ++calls_;
}

void
TimedTool::attach(const sigil::vg::Guest &guest)
{
    Tool::attach(guest);
    timed([&] { inner_.attach(guest); });
}

void
TimedTool::processBatch(const sigil::vg::EventBuffer &batch)
{
    timed([&] { inner_.processBatch(batch); });
}

void
TimedTool::fnEnter(sigil::vg::ContextId ctx, sigil::vg::CallNum call)
{
    timed([&] { inner_.fnEnter(ctx, call); });
}

void
TimedTool::fnLeave(sigil::vg::ContextId ctx, sigil::vg::CallNum call)
{
    timed([&] { inner_.fnLeave(ctx, call); });
}

void
TimedTool::memRead(sigil::vg::Addr addr, unsigned size)
{
    timed([&] { inner_.memRead(addr, size); });
}

void
TimedTool::memWrite(sigil::vg::Addr addr, unsigned size)
{
    timed([&] { inner_.memWrite(addr, size); });
}

void
TimedTool::op(std::uint64_t iops, std::uint64_t flops)
{
    timed([&] { inner_.op(iops, flops); });
}

void
TimedTool::branch(bool taken)
{
    timed([&] { inner_.branch(taken); });
}

void
TimedTool::threadSwitch(sigil::vg::ThreadId tid)
{
    timed([&] { inner_.threadSwitch(tid); });
}

void
TimedTool::barrier()
{
    timed([&] { inner_.barrier(); });
}

void
TimedTool::roi(bool active)
{
    timed([&] { inner_.roi(active); });
}

void
TimedTool::sync()
{
    timed([&] { inner_.sync(); });
}

void
TimedTool::finish()
{
    std::int64_t before = busyNs_;
    timed([&] { inner_.finish(); });
    finishNs_ += busyNs_ - before;
}

double
timedCallOverheadNs()
{
    NullTool null;
    TimedTool timed(null);
    sigil::vg::Tool &tool = timed;
    constexpr int kCalls = 200000;
    std::vector<double> per_call;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            tool.memRead(static_cast<sigil::vg::Addr>(i), 8);
        per_call.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                           kCalls);
    }
    return median(per_call);
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
interquartileMean(std::vector<double> samples)
{
    if (samples.size() < 4)
        return median(std::move(samples));
    std::sort(samples.begin(), samples.end());
    const std::size_t lo = samples.size() / 4;
    const std::size_t hi = samples.size() - lo;
    double total = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        total += samples[i];
    return total / static_cast<double>(hi - lo);
}

double
sum(const std::vector<double> &samples)
{
    double total = 0.0;
    for (double v : samples)
        total += v;
    return total;
}

double
mean(const std::vector<double> &samples)
{
    return samples.empty()
               ? 0.0
               : sum(samples) / static_cast<double>(samples.size());
}

std::vector<double>
meanPerProgram(const std::vector<std::vector<double>> &passes)
{
    std::vector<double> total(passes.front().size(), 0.0);
    for (const std::vector<double> &pass : passes)
        for (std::size_t i = 0; i < total.size(); ++i)
            total[i] += pass[i];
    for (double &t : total)
        t /= static_cast<double>(passes.size());
    return total;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return 0;
    return static_cast<std::uint64_t>(is.tellg());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
digestHex(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::map<std::string, std::string>
readDigests(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string program, digest;
        if (fields >> program >> digest)
            out[program] = digest;
    }
    return out;
}

void
zeroPerLayerMetrics(Result &r)
{
    for (const auto &[name, unit] : kPerLayer)
        r.set(name, 0.0, unit);
}

bool
isPerLayerMetric(const std::string &name)
{
    for (const auto &entry : kPerLayer)
        if (name == entry.first)
            return true;
    return false;
}

void
setLayerMedians(Result &r, const std::vector<LayerSums> &passes)
{
    for (const auto &[name, unit] : kPerLayer) {
        std::vector<double> values;
        for (const LayerSums &pass : passes) {
            auto it = pass.find(name);
            if (it != pass.end())
                values.push_back(it->second);
        }
        if (!values.empty())
            r.set(name, median(values), unit);
    }
}

} // namespace perfbench
