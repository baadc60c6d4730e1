#include "chain_stats.hh"

#include <algorithm>

#include "critpath/critical_path.hh"
#include "critpath/seq_index.hh"
#include "support/logging.hh"

namespace sigil::critpath {

ChainStats
chainStats(const core::EventTrace &trace)
{
    ChainStats stats;
    // Per indexed segment (first record of each seq): inclusive cost
    // and whether any later segment depends on it.
    SeqIndex by_seq;
    std::vector<std::uint64_t> incl_of;
    std::vector<char> has_successor;
    std::vector<core::XferEvent> pending;

    for (const core::EventRecord &rec : trace.records) {
        if (rec.kind == core::EventRecord::Kind::Xfer) {
            pending.push_back(rec.xfer);
            continue;
        }
        const core::ComputeEvent &c = rec.compute;
        ++stats.segments;
        std::uint64_t self = c.iops + c.flops;
        stats.totalWork += self;

        std::uint64_t best = 0;
        std::uint64_t preds = 0;
        auto dep = [&](std::uint64_t seq) {
            if (seq == 0)
                return;
            std::size_t i = by_seq.find(seq);
            if (i == SeqIndex::kAbsent)
                return;
            ++preds;
            has_successor[i] = 1;
            if (incl_of[i] > best)
                best = incl_of[i];
        };
        dep(c.predSeq);
        for (const core::XferEvent &x : pending) {
            if (x.dstSeq == c.seq)
                dep(x.srcSeq);
        }
        pending.clear();

        stats.edges += preds;
        if (preds == 0)
            ++stats.roots;
        std::uint64_t incl = best + self;
        if (by_seq.add(c.seq, incl_of.size())) {
            incl_of.push_back(incl);
            has_successor.push_back(0);
        }
        stats.inclCostHist.add(incl);
        if (incl > stats.criticalPath)
            stats.criticalPath = incl;
    }

    stats.leaves = static_cast<std::uint64_t>(
        std::count(has_successor.begin(), has_successor.end(), 0));

    stats.avgParallelism =
        stats.criticalPath == 0
            ? 1.0
            : static_cast<double>(stats.totalWork) /
                  static_cast<double>(stats.criticalPath);
    if (stats.avgParallelism < 1.0)
        stats.avgParallelism = 1.0;
    return stats;
}

std::vector<double>
scheduleSpeedups(const core::EventTrace &trace,
                 const std::vector<unsigned> &slots)
{
    std::uint64_t serial = scheduleMakespan(trace, 1);
    std::vector<double> out;
    out.reserve(slots.size());
    for (unsigned s : slots) {
        std::uint64_t makespan = scheduleMakespan(trace, s);
        out.push_back(makespan == 0
                          ? 1.0
                          : static_cast<double>(serial) /
                                static_cast<double>(makespan));
    }
    return out;
}

} // namespace sigil::critpath
