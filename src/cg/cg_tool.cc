#include "cg_tool.hh"

#include <algorithm>

#include "support/logging.hh"

namespace sigil::cg {

const CgCounters CgTool::kZero{};

CgCounters &
CgTool::row(vg::ContextId ctx)
{
    std::size_t idx = static_cast<std::size_t>(ctx);
    if (idx >= rows_.size())
        rows_.resize(idx + 1);
    return rows_[idx];
}

void
CgTool::fetchCode(vg::ContextId ctx, std::uint64_t instr_bytes)
{
    std::size_t idx = static_cast<std::size_t>(ctx);
    if (idx >= fetchPos_.size())
        fetchPos_.resize(idx + 1, 0);
    vg::FunctionId fn = guest_->contexts().function(ctx);
    vg::Addr base = kCodeBase + static_cast<vg::Addr>(fn) * kFnCodeBytes;
    // Cap the walk at one wrap of the region: beyond that every line
    // has been touched already this call.
    std::uint64_t bytes =
        std::min<std::uint64_t>(instr_bytes, kFnCodeBytes);
    std::uint32_t pos = fetchPos_[idx];
    CgCounters &c = row(ctx);
    std::uint32_t line_bytes = i1_.lineBytes();
    for (std::uint64_t done = 0; done < bytes; done += line_bytes) {
        vg::Addr addr = base + (pos % kFnCodeBytes);
        if (!i1_.accessLine(addr / line_bytes) && collecting_)
            ++c.i1Misses;
        pos += line_bytes;
    }
    fetchPos_[idx] = pos % kFnCodeBytes;
}

void
CgTool::roi(bool active)
{
    if (roiOnly_)
        collecting_ = active;
}

void
CgTool::fnEnter(vg::ContextId ctx, vg::CallNum call)
{
    (void)call;
    if (collecting_)
        ++row(ctx).calls;
    // Entering a function fetches its entry line.
    fetchPos_.resize(
        std::max<std::size_t>(fetchPos_.size(),
                              static_cast<std::size_t>(ctx) + 1),
        0);
    fetchPos_[static_cast<std::size_t>(ctx)] = 0;
    fetchCode(ctx, 4);
}

void
CgTool::fnLeave(vg::ContextId ctx, vg::CallNum call)
{
    (void)ctx;
    (void)call;
}

void
CgTool::memRead(vg::Addr addr, unsigned size)
{
    CacheAccessResult r = caches_.access(addr, size);
    if (!collecting_)
        return;
    CgCounters &c = row(guest_->currentContext());
    ++c.instructions;
    ++c.reads;
    c.readBytes += size;
    c.d1Misses += r.d1Misses;
    c.llMisses += r.llMisses;
}

void
CgTool::memWrite(vg::Addr addr, unsigned size)
{
    CacheAccessResult r = caches_.access(addr, size, true);
    if (!collecting_)
        return;
    CgCounters &c = row(guest_->currentContext());
    ++c.instructions;
    ++c.writes;
    c.writeBytes += size;
    c.d1Misses += r.d1Misses;
    c.llMisses += r.llMisses;
}

void
CgTool::op(std::uint64_t iops, std::uint64_t flops)
{
    vg::ContextId ctx = guest_->currentContext();
    if (collecting_) {
        CgCounters &c = row(ctx);
        c.instructions += iops + flops;
        c.iops += iops;
        c.flops += flops;
    }
    // Four code bytes per retired operation.
    fetchCode(ctx, (iops + flops) * 4);
}

void
CgTool::branch(bool taken)
{
    vg::ContextId ctx = guest_->currentContext();
    bool mispredict = branches_.record(ctx, taken);
    if (!collecting_)
        return;
    CgCounters &c = row(ctx);
    ++c.instructions;
    ++c.branches;
    if (mispredict)
        ++c.branchMispredicts;
}

const CgCounters &
CgTool::counters(vg::ContextId ctx) const
{
    std::size_t idx = static_cast<std::size_t>(ctx);
    return idx < rows_.size() ? rows_[idx] : kZero;
}

CgProfile
CgTool::takeProfile() const
{
    if (guest_ == nullptr)
        panic("CgTool::takeProfile before attach");
    const vg::ContextTree &ctxs = guest_->contexts();
    const vg::FunctionRegistry &fns = guest_->functions();

    CgProfile profile;
    profile.program = guest_->programName();
    profile.rows.resize(ctxs.size());
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        vg::ContextId ctx = static_cast<vg::ContextId>(i);
        CgRow &out = profile.rows[i];
        out.ctx = ctx;
        out.parent = ctxs.parent(ctx);
        out.fn = ctxs.function(ctx);
        out.fnName = fns.name(out.fn);
        out.displayName = ctxs.displayName(ctx);
        out.path = ctxs.pathName(ctx);
        out.self = counters(ctx);
    }
    profile.accumulateInclusive();
    return profile;
}

} // namespace sigil::cg
