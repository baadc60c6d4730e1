#include "core/profile_query.hh"

#include <cstdio>
#include <sstream>

#include "core/comm_stats.hh"
#include "core/profile_diff.hh"
#include "core/profile_io.hh"
#include "core/report.hh"
#include "support/table.hh"

namespace sigil::core {

namespace {

/** Display name of a context id, tolerating ids outside the rows. */
std::string
contextName(const SigilProfile &profile, vg::ContextId ctx)
{
    if (ctx == kUninitProducer)
        return "<uninit>";
    if (ctx >= 0 &&
        static_cast<std::size_t>(ctx) < profile.rows.size()) {
        const SigilRow &row = profile.rows[static_cast<std::size_t>(ctx)];
        if (!row.displayName.empty())
            return row.displayName;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ctx%lld",
                  static_cast<long long>(ctx));
    return buf;
}

void
appendRowLine(std::string &out, const char *name,
              const CommAggregates &a)
{
    appendf(out,
            "  %-32s calls %llu iops %llu flops %llu "
            "read %llu write %llu uniq-in %llu uniq-out %llu\n",
            name, static_cast<unsigned long long>(a.calls),
            static_cast<unsigned long long>(a.iops),
            static_cast<unsigned long long>(a.flops),
            static_cast<unsigned long long>(a.readBytes),
            static_cast<unsigned long long>(a.writeBytes),
            static_cast<unsigned long long>(a.uniqueInputBytes),
            static_cast<unsigned long long>(a.uniqueOutputBytes));
}

} // namespace

std::string
profileQueryText(const SigilProfile &profile)
{
    std::ostringstream os;
    writeProfile(os, profile);
    return os.str();
}

std::string
functionQueryText(const SigilProfile &profile, const std::string &fn_name)
{
    std::vector<const SigilRow *> rows = profile.findByFunction(fn_name);
    std::string out;
    appendf(out, "function %s: %zu context%s\n", fn_name.c_str(),
            rows.size(), rows.size() == 1 ? "" : "s");
    if (rows.empty()) {
        out += "  (no context matches this function name)\n";
        return out;
    }
    CommAggregates sum;
    for (const SigilRow *row : rows) {
        appendRowLine(out, row->displayName.c_str(), row->agg);
        sum.calls += row->agg.calls;
        sum.iops += row->agg.iops;
        sum.flops += row->agg.flops;
        sum.readBytes += row->agg.readBytes;
        sum.writeBytes += row->agg.writeBytes;
        sum.uniqueInputBytes += row->agg.uniqueInputBytes;
        sum.uniqueOutputBytes += row->agg.uniqueOutputBytes;
    }
    if (rows.size() > 1)
        appendRowLine(out, "<total>", sum);
    return out;
}

std::string
edgesQueryText(const SigilProfile &profile)
{
    std::string out;
    appendf(out, "edges %zu\n", profile.edges.size());
    for (const CommEdge &e : profile.edges) {
        appendf(out, "  %s -> %s unique %llu nonunique %llu\n",
                contextName(profile, e.producer).c_str(),
                contextName(profile, e.consumer).c_str(),
                static_cast<unsigned long long>(e.uniqueBytes),
                static_cast<unsigned long long>(e.nonuniqueBytes));
    }
    if (!profile.threadEdges.empty()) {
        appendf(out, "thread-edges %zu\n", profile.threadEdges.size());
        for (const ThreadCommEdge &e : profile.threadEdges) {
            appendf(out, "  t%u -> t%u unique %llu nonunique %llu\n",
                    e.producer, e.consumer,
                    static_cast<unsigned long long>(e.uniqueBytes),
                    static_cast<unsigned long long>(e.nonuniqueBytes));
        }
    }
    return out;
}

std::string
diffQueryText(const SigilProfile &lhs, const SigilProfile &rhs)
{
    ProfileDiff diff = diffProfiles(lhs, rhs);
    std::string out;
    appendf(out, "profiles %s: %zu mismatch%s\n",
            diff.identical() ? "identical" : "differ",
            diff.mismatches.size(),
            diff.mismatches.size() == 1 ? "" : "es");
    if (!diff.identical())
        out += diff.describe();
    return out;
}

std::string
summaryQueryText(const SigilProfile &profile, std::size_t top_n)
{
    std::string out = flatReport(profile, nullptr, top_n);
    out += "\n";
    out += commSummary(profile);
    return out;
}

std::uint64_t
profileMemoryEstimate(const SigilProfile &profile)
{
    std::uint64_t bytes = sizeof(SigilProfile);
    bytes += profile.program.capacity();
    for (const SigilRow &row : profile.rows) {
        bytes += sizeof(SigilRow);
        bytes += row.fnName.capacity() + row.displayName.capacity() +
                 row.path.capacity();
    }
    bytes += profile.edges.size() * sizeof(CommEdge);
    bytes += profile.threadEdges.size() * sizeof(ThreadCommEdge);
    for (const SigilProfile::ObjectRow &obj : profile.objects)
        bytes += sizeof(obj) + obj.tag.capacity();
    return bytes;
}

} // namespace sigil::core
