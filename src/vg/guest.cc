#include "guest.hh"

#include <algorithm>

#include "support/logging.hh"

namespace sigil::vg {

Guest::Guest(std::string program_name, const GuestConfig &config)
    : programName_(std::move(program_name)), config_(config),
      contexts_(functions_, config.maxContextDepth)
{
    inputFn_ = functions_.intern("*input*");
    threads_.push_back(ThreadCtx{{}, kStackBase});
}

void
Guest::addTool(Tool *tool)
{
    if (tool == nullptr)
        panic("Guest::addTool: null tool");
    tools_.push_back(tool);
    tool->attach(*this);
}

void
Guest::enter(FunctionId fn)
{
    if (finished_)
        panic("Guest::enter after finish()");
    ThreadCtx &t = thread();
    ContextId parent =
        t.frames.empty() ? kInvalidContext : t.frames.back().ctx;
    ContextId ctx = contexts_.enterChild(parent, fn);
    CallNum call = nextCall_++;
    t.frames.push_back(Frame{ctx, call, t.stackPtr});
    ++counters_.calls;
    for (Tool *tool : tools_)
        tool->fnEnter(ctx, call);
}

void
Guest::leave()
{
    ThreadCtx &t = thread();
    if (t.frames.empty())
        panic("Guest::leave with empty call stack");
    Frame f = t.frames.back();
    t.frames.pop_back();
    t.stackPtr = f.stackWatermark;
    for (Tool *tool : tools_)
        tool->fnLeave(f.ctx, f.call);
}

void
Guest::emptyStack(const char *query)
{
    panic("Guest::%s with empty call stack", query);
}

Addr
Guest::alloc(std::size_t bytes, std::string_view tag)
{
    if (bytes == 0)
        bytes = 1;
    Addr base = heapPtr_;
    // Keep allocations 64-byte aligned so line-granularity shadowing
    // never aliases two allocations onto one line.
    heapPtr_ += (bytes + 63) & ~static_cast<Addr>(63);
    if (heapPtr_ >= kStackBase)
        fatal("guest heap exhausted (%llu bytes allocated)",
              static_cast<unsigned long long>(heapBytes()));
    allocations_.push_back(Allocation{
        base, static_cast<std::uint64_t>(bytes),
        std::string(tag.empty() ? "anon" : tag)});
    return base;
}

int
Guest::allocationOf(Addr addr) const
{
    // Allocations are bump-allocated, so the vector is base-sorted.
    std::size_t lo = 0;
    std::size_t hi = allocations_.size();
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (allocations_[mid].base <= addr)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == 0)
        return -1;
    const Allocation &a = allocations_[lo - 1];
    if (addr < a.base + a.size)
        return static_cast<int>(lo - 1);
    return -1;
}

Addr
Guest::stackAlloc(std::size_t bytes)
{
    ThreadCtx &t = thread();
    if (t.frames.empty())
        panic("Guest::stackAlloc outside any function");
    Addr base = t.stackPtr;
    t.stackPtr += (bytes + 7) & ~static_cast<Addr>(7);
    return base;
}

void
Guest::rejectAccess(const char *kind, Addr addr, unsigned size) const
{
    if (thread().frames.empty())
        panic("Guest::%s outside any function", kind);
    panic("Guest::%s of %u bytes at %#llx wraps past the top of the "
          "address space",
          kind, size, static_cast<unsigned long long>(addr));
}

void
Guest::read(Addr addr, unsigned size)
{
    ++counters_.reads;
    counters_.readBytes += size;
    if (thread().frames.empty() || accessWraps(addr, size)) [[unlikely]]
        rejectAccess("read", addr, size);
    for (Tool *t : tools_)
        t->memRead(addr, size);
}

void
Guest::write(Addr addr, unsigned size)
{
    ++counters_.writes;
    counters_.writeBytes += size;
    if (thread().frames.empty() || accessWraps(addr, size)) [[unlikely]]
        rejectAccess("write", addr, size);
    for (Tool *t : tools_)
        t->memWrite(addr, size);
}

void
Guest::iop(std::uint64_t n)
{
    counters_.iops += n;
    for (Tool *t : tools_)
        t->op(n, 0);
}

void
Guest::flop(std::uint64_t n)
{
    counters_.flops += n;
    for (Tool *t : tools_)
        t->op(0, n);
}

void
Guest::branch(bool taken)
{
    ++counters_.branches;
    for (Tool *t : tools_)
        t->branch(taken);
}

void
Guest::beginInput()
{
    enter(inputFn_);
}

void
Guest::endInput()
{
    if (thread().frames.empty() ||
        contexts_.function(thread().frames.back().ctx) != inputFn_) {
        panic("Guest::endInput without matching beginInput");
    }
    leave();
}

void
Guest::syscallOut(std::string_view name, Addr addr, unsigned size)
{
    enter(functions_.intern("sys_" + std::string(name)));
    // The kernel reads the user buffer in page-sized gulps.
    for (unsigned off = 0; off < size; off += 4096) {
        unsigned chunk = std::min(4096u, size - off);
        read(addr + off, chunk);
    }
    iop(2);
    leave();
}

void
Guest::syscallIn(std::string_view name, Addr addr, unsigned size)
{
    enter(functions_.intern("sys_" + std::string(name)));
    for (unsigned off = 0; off < size; off += 4096) {
        unsigned chunk = std::min(4096u, size - off);
        write(addr + off, chunk);
    }
    iop(2);
    leave();
}

ThreadId
Guest::spawnThread()
{
    if (finished_)
        panic("Guest::spawnThread after finish()");
    ThreadId tid = static_cast<ThreadId>(threads_.size());
    threads_.push_back(ThreadCtx{
        {}, kStackBase + static_cast<Addr>(tid) * kThreadStackStride});
    return tid;
}

void
Guest::switchThread(ThreadId tid)
{
    if (tid >= threads_.size())
        panic("Guest::switchThread to unknown thread %u", tid);
    if (tid == currentTid_)
        return;
    currentTid_ = tid;
    for (Tool *t : tools_)
        t->threadSwitch(tid);
}

void
Guest::roiBegin()
{
    if (roiActive_)
        panic("Guest::roiBegin: ROI already active (no nesting)");
    roiActive_ = true;
    for (Tool *t : tools_)
        t->roi(true);
}

void
Guest::roiEnd()
{
    if (!roiActive_)
        panic("Guest::roiEnd without roiBegin");
    roiActive_ = false;
    for (Tool *t : tools_)
        t->roi(false);
}

void
Guest::barrier()
{
    if (finished_)
        panic("Guest::barrier after finish()");
    for (Tool *t : tools_)
        t->barrier();
}

void
Guest::finish()
{
    if (finished_)
        return;
    for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
        if (threads_[tid].frames.empty())
            continue;
        warn("Guest::finish with %zu frames active on thread %u",
             threads_[tid].frames.size(), tid);
        switchThread(tid);
        while (!thread().frames.empty())
            leave();
    }
    finished_ = true;
    for (Tool *t : tools_)
        t->finish();
}

void
Guest::saveState(ByteSink &sink)
{
    sink.u8(1); // guest state version
    sink.str(programName_);

    std::size_t num_fns = functions_.size();
    sink.varint(num_fns);
    for (std::size_t i = 0; i < num_fns; ++i)
        sink.str(functions_.name(static_cast<FunctionId>(i)));

    std::size_t num_ctxs = contexts_.size();
    sink.varint(num_ctxs);
    for (std::size_t i = 0; i < num_ctxs; ++i) {
        ContextId ctx = static_cast<ContextId>(i);
        // kInvalidContext (-1) maps to 0, real parents to parent + 1.
        sink.varint(
            static_cast<std::uint64_t>(contexts_.parent(ctx) + 1));
        sink.varint(static_cast<std::uint64_t>(contexts_.function(ctx)));
    }

    sink.varint(threads_.size());
    for (const ThreadCtx &t : threads_) {
        sink.u64(t.stackPtr);
        sink.varint(t.frames.size());
        for (const Frame &f : t.frames) {
            sink.varint(static_cast<std::uint64_t>(f.ctx));
            sink.u64(f.call);
            sink.u64(f.stackWatermark);
        }
    }
    sink.varint(currentTid_);
    sink.u64(nextCall_);
    sink.u64(heapPtr_);

    sink.varint(allocations_.size());
    for (const Allocation &a : allocations_) {
        sink.u64(a.base);
        sink.u64(a.size);
        sink.str(a.tag);
    }

    sink.u8(roiActive_ ? 1 : 0);
    sink.u8(finished_ ? 1 : 0);

    sink.u64(counters_.reads);
    sink.u64(counters_.readBytes);
    sink.u64(counters_.writes);
    sink.u64(counters_.writeBytes);
    sink.u64(counters_.iops);
    sink.u64(counters_.flops);
    sink.u64(counters_.branches);
    sink.u64(counters_.calls);
}

bool
Guest::restoreState(ByteSource &src)
{
    if (src.u8() != 1)
        return false;
    if (src.str() != programName_)
        return false;

    // Registries rebuild by re-interning in id order: a fresh guest
    // assigns the same dense ids, and enterChild() replays the exact
    // folding decisions the original run made (the tree prefix at each
    // step equals the original prefix).
    std::uint64_t num_fns = src.varint();
    if (num_fns > (std::uint64_t{1} << 32))
        return false;
    for (std::uint64_t i = 0; i < num_fns; ++i) {
        if (!src.ok())
            return false;
        if (functions_.intern(src.str()) != static_cast<FunctionId>(i))
            return false;
    }

    std::uint64_t num_ctxs = src.varint();
    if (num_ctxs > (std::uint64_t{1} << 32))
        return false;
    for (std::uint64_t i = 0; i < num_ctxs; ++i) {
        if (!src.ok())
            return false;
        ContextId parent =
            static_cast<ContextId>(src.varint()) - 1;
        FunctionId fn = static_cast<FunctionId>(src.varint());
        if (fn < 0 || static_cast<std::uint64_t>(fn) >= num_fns)
            return false;
        if (contexts_.enterChild(parent, fn) !=
            static_cast<ContextId>(i)) {
            return false;
        }
    }

    std::uint64_t num_threads = src.varint();
    if (num_threads == 0 || num_threads > (std::uint64_t{1} << 20))
        return false;
    threads_.clear();
    for (std::uint64_t t = 0; t < num_threads; ++t) {
        ThreadCtx tc;
        tc.stackPtr = src.u64();
        std::uint64_t num_frames = src.varint();
        if (!src.ok() || num_frames > (std::uint64_t{1} << 24))
            return false;
        tc.frames.reserve(static_cast<std::size_t>(num_frames));
        for (std::uint64_t f = 0; f < num_frames; ++f) {
            Frame fr;
            fr.ctx = static_cast<ContextId>(src.varint());
            fr.call = src.u64();
            fr.stackWatermark = src.u64();
            if (fr.ctx < 0 ||
                static_cast<std::uint64_t>(fr.ctx) >= num_ctxs) {
                return false;
            }
            tc.frames.push_back(fr);
        }
        threads_.push_back(std::move(tc));
    }
    currentTid_ = static_cast<ThreadId>(src.varint());
    if (currentTid_ >= threads_.size())
        return false;
    nextCall_ = src.u64();
    heapPtr_ = src.u64();

    std::uint64_t num_allocs = src.varint();
    if (!src.ok() || num_allocs > (std::uint64_t{1} << 32))
        return false;
    allocations_.clear();
    for (std::uint64_t i = 0; i < num_allocs; ++i) {
        Allocation a;
        a.base = src.u64();
        a.size = src.u64();
        a.tag = src.str();
        if (!src.ok())
            return false;
        allocations_.push_back(std::move(a));
    }

    roiActive_ = src.u8() != 0;
    finished_ = src.u8() != 0;

    counters_.reads = src.u64();
    counters_.readBytes = src.u64();
    counters_.writes = src.u64();
    counters_.writeBytes = src.u64();
    counters_.iops = src.u64();
    counters_.flops = src.u64();
    counters_.branches = src.u64();
    counters_.calls = src.u64();
    return src.ok();
}

} // namespace sigil::vg
