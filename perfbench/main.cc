/**
 * @file
 * Entry point of the end-to-end benchmark.
 *
 *   sigil_perfbench --workload live_collect|replay_analyze|query_serve
 *                   --seed N --seconds S --trace 0|1 --tmp DIR
 *                   --digests FILE [--spans FILE]
 *
 * Prints a manifest line, then as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones
 * (and the spans go to --spans). Exits non-zero when any output check
 * failed. perfbench/run.py builds this binary and runs it.
 */

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
manifest(const Options &opt)
{
    struct utsname u = {};
    uname(&u);
    return std::string("{\"manifest\": {\"workload\": ") +
           jsonString(opt.workload) +
           ", \"seed\": " + std::to_string(opt.seed) +
           ", \"seconds\": " + std::to_string(opt.seconds) +
           ", \"trace\": " + (opt.trace ? "1" : "0") +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"kernel\": " + jsonString(std::string(u.sysname) + " " +
                                         u.release) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) + "}}";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "sigil_perfbench: %s\nusage: sigil_perfbench --workload "
                 "live_collect|replay_analyze|query_serve --seed N "
                 "--seconds S --trace 0|1 --tmp DIR --digests FILE "
                 "[--spans FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "sigil_perfbench: refusing to measure a build "
                         "without NDEBUG or with a sanitizer\n");
    return 2;
#endif
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            opt.trace = std::strcmp(val, "0") != 0;
        else if (key == "--tmp")
            opt.tmpDir = val;
        else if (key == "--digests")
            opt.digestsPath = val;
        else if (key == "--spans")
            opt.spansPath = val;
        else
            usage(("unknown option " + key).c_str());
    }
    if (argc % 2 != 1 || opt.tmpDir.empty() || opt.digestsPath.empty() ||
        !(opt.seconds > 0))
        usage("missing or malformed arguments");

    Tracer tracer(opt.trace);
    Result r;
    if (opt.workload == "live_collect")
        r = runLiveCollect(opt, tracer);
    else if (opt.workload == "replay_analyze")
        r = runReplayAnalyze(opt, tracer);
    else if (opt.workload == "query_serve")
        r = runQueryServe(opt, tracer);
    else
        usage(("unknown workload " + opt.workload).c_str());

    r.set("peak_rss_mb", peakRssMb(), "MB");
    for (const auto &[name, metric] : r.metrics)
        if (!std::isfinite(metric.first))
            r.check(false, "metric " + name + " is not finite");
    if (opt.trace) {
        r.set("trace.overhead_ns_per_call", timedCallOverheadNs(), "ns");
        Result all;
        zeroPerLayerMetrics(all);
        for (const auto &[name, metric] : r.metrics)
            if (isPerLayerMetric(name))
                all.metrics[name] = metric;
        r.metrics.swap(all.metrics);
        const std::string m = manifest(opt);
        if (!opt.spansPath.empty() && !tracer.write(opt.spansPath, m))
            r.check(false, "writing spans to " + opt.spansPath);
    } else {
        for (auto it = r.metrics.begin(); it != r.metrics.end();)
            it = isPerLayerMetric(it->first) ? r.metrics.erase(it)
                                             : std::next(it);
    }

    std::string out = "{\"correct\": ";
    out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : r.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.first) ? metric.first : -1.0);
        out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
               value + ", \"unit\": " + jsonString(metric.second) + "}";
        first = false;
        std::fprintf(stderr, "  %-34s %14.6g %s\n", name.c_str(),
                     metric.first, metric.second.c_str());
    }
    out += "}}";
    std::printf("%s\n%s\n", manifest(opt).c_str(), out.c_str());
    return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
