#include "critical_path.hh"

#include <algorithm>

#include "critpath/seq_index.hh"
#include "support/logging.hh"

namespace sigil::critpath {

std::vector<vg::ContextId>
CriticalPathResult::pathContexts() const
{
    std::vector<vg::ContextId> out;
    for (const ChainNode &n : path) {
        if (out.empty() || out.back() != n.ctx)
            out.push_back(n.ctx);
    }
    return out;
}

CriticalPathResult
analyze(const core::EventTrace &trace)
{
    CriticalPathResult result;

    std::vector<ChainNode> nodes;
    SeqIndex by_seq;
    std::vector<core::XferEvent> pending;

    auto incl_of = [&](std::uint64_t seq) -> std::uint64_t {
        if (seq == 0)
            return 0;
        std::size_t i = by_seq.find(seq);
        return i == SeqIndex::kAbsent ? 0 : nodes[i].inclCost;
    };

    for (const core::EventRecord &rec : trace.records) {
        if (rec.kind == core::EventRecord::Kind::Xfer) {
            pending.push_back(rec.xfer);
            continue;
        }
        const core::ComputeEvent &c = rec.compute;
        ChainNode n;
        n.seq = c.seq;
        n.ctx = c.ctx;
        n.call = c.call;
        n.selfCost = c.iops + c.flops;
        result.serialLength += n.selfCost;

        std::uint64_t best = incl_of(c.predSeq);
        // Only a segment already seen is a dependency: a predecessor
        // the trace has not reached yet must not become a chain link
        // (the walk below would follow it, possibly round a cycle).
        n.bestPredSeq =
            by_seq.find(c.predSeq) != SeqIndex::kAbsent ? c.predSeq : 0;
        for (const core::XferEvent &x : pending) {
            if (x.dstSeq != c.seq) {
                warn("critpath: transfer for segment %llu seen before "
                     "segment %llu",
                     static_cast<unsigned long long>(x.dstSeq),
                     static_cast<unsigned long long>(c.seq));
                continue;
            }
            std::uint64_t cand = incl_of(x.srcSeq);
            if (cand > best) {
                best = cand;
                n.bestPredSeq = x.srcSeq;
            }
        }
        pending.clear();

        n.inclCost = best + n.selfCost;
        by_seq.add(n.seq, nodes.size());
        nodes.push_back(n);
    }

    // Locate the longest chain and walk it back to its start.
    std::size_t tip = nodes.size();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (tip == nodes.size() ||
            nodes[i].inclCost > nodes[tip].inclCost) {
            tip = i;
        }
    }
    if (tip < nodes.size()) {
        result.criticalPathLength = nodes[tip].inclCost;
        std::uint64_t seq = nodes[tip].seq;
        while (seq != 0) {
            std::size_t i = by_seq.find(seq);
            if (i == SeqIndex::kAbsent)
                break;
            const ChainNode &n = nodes[i];
            result.path.push_back(n);
            seq = n.bestPredSeq;
        }
    }

    result.maxParallelism =
        result.criticalPathLength == 0
            ? 1.0
            : static_cast<double>(result.serialLength) /
                  static_cast<double>(result.criticalPathLength);
    if (result.maxParallelism < 1.0)
        result.maxParallelism = 1.0;
    return result;
}

std::uint64_t
scheduleMakespan(const core::EventTrace &trace, unsigned slots)
{
    if (slots == 0)
        fatal("scheduleMakespan: need at least one slot");

    SeqIndex by_seq;
    std::vector<std::uint64_t> finish;
    std::vector<std::uint64_t> slot_free(slots, 0);
    std::vector<core::XferEvent> pending;
    std::uint64_t makespan = 0;

    for (const core::EventRecord &rec : trace.records) {
        if (rec.kind == core::EventRecord::Kind::Xfer) {
            pending.push_back(rec.xfer);
            continue;
        }
        const core::ComputeEvent &c = rec.compute;
        std::uint64_t ready = 0;
        auto dep = [&](std::uint64_t seq) {
            if (seq == 0)
                return;
            std::size_t i = by_seq.find(seq);
            if (i != SeqIndex::kAbsent)
                ready = std::max(ready, finish[i]);
        };
        dep(c.predSeq);
        for (const core::XferEvent &x : pending) {
            if (x.dstSeq == c.seq)
                dep(x.srcSeq);
        }
        pending.clear();

        auto slot = std::min_element(slot_free.begin(), slot_free.end());
        std::uint64_t start = std::max(*slot, ready);
        std::uint64_t end = start + c.iops + c.flops;
        *slot = end;
        by_seq.add(c.seq, finish.size());
        finish.push_back(end);
        makespan = std::max(makespan, end);
    }
    return makespan;
}

} // namespace sigil::critpath
