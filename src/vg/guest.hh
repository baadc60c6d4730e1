/**
 * @file
 * The guest-program facade of the instrumentation substrate.
 *
 * Guest stands in for the combination of (a) the program under analysis
 * and (b) Valgrind's core: it owns a synthetic guest address space, the
 * function registry and calling-context tree, a virtual clock measured in
 * retired operations, and a chain of attached tools to which it
 * dispatches every primitive event: one tool callback per event, as it
 * happens, so a tool's queries of the guest's ambient state describe
 * the event being delivered.
 *
 * Workloads are written against this facade: they allocate guest arrays,
 * route every load/store through read()/write(), account arithmetic with
 * iop()/flop(), and bracket functions with enter()/leave() (usually via
 * ScopedFunction). With no tools attached the dispatch is skipped, which
 * serves as the "native" baseline for the slowdown experiments.
 */

#ifndef SIGIL_VG_GUEST_HH
#define SIGIL_VG_GUEST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/serial.hh"
#include "vg/context_tree.hh"
#include "vg/function_registry.hh"
#include "vg/tool.hh"
#include "vg/types.hh"

namespace sigil {
class MemoryGovernor;
} // namespace sigil

namespace sigil::vg {

/** Aggregate counters of everything the guest retired. */
struct GuestCounters
{
    std::uint64_t reads = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t iops = 0;
    std::uint64_t flops = 0;
    std::uint64_t branches = 0;
    std::uint64_t calls = 0;

    /** Retired "instructions": ops + memory accesses + branches. */
    std::uint64_t
    instructions() const
    {
        return iops + flops + reads + writes + branches;
    }
};

/** Construction-time options of a guest. */
struct GuestConfig
{
    /**
     * Context-separation depth (Callgrind's --separate-callers):
     * calls deeper than this fold into their capped ancestor chain.
     * 0 = unlimited.
     */
    unsigned maxContextDepth = 0;

    /**
     * Process-wide memory budget, in bytes, enforced by the guest's
     * MemoryGovernor (support/mem_governor.hh). Accounted against it:
     * shadow chunks (hot + cold + stamp tables). When an allocation
     * would exceed the budget the shadow evicts least-recently-used
     * chunks first and then escalates to the profiler's
     * never-descending degradation ladder instead of OOM-ing. 0 (the
     * default) disables enforcement; the governor still tracks usage.
     */
    std::size_t memoryBudgetBytes = 0;
};

/** The instrumented guest program. */
class Guest
{
  public:
    explicit Guest(std::string program_name)
        : Guest(std::move(program_name), GuestConfig{})
    {}

    Guest(std::string program_name, const GuestConfig &config);

    Guest(const Guest &) = delete;
    Guest &operator=(const Guest &) = delete;

    /** Attach a tool; the guest does not take ownership. */
    void addTool(Tool *tool);

    const std::string &programName() const { return programName_; }

    /** The configuration this guest was constructed with. */
    const GuestConfig &config() const { return config_; }

    /**
     * The guest's memory-budget governor. Always present: with
     * memoryBudgetBytes == 0 it only tracks usage. Tools and replay
     * sessions attached to this guest charge their footprints here.
     */
    sigil::MemoryGovernor *governor() const { return governor_.get(); }

    /**
     * Shared ownership of the governor. Tools routinely outlive the
     * guest they were attached to (tests tear the guest down first),
     * so a subsystem that must reach the governor from its own
     * destructor — the profiler's shadow releasing its chunk charge —
     * keeps this shared handle instead of the raw pointer.
     */
    std::shared_ptr<sigil::MemoryGovernor> governorShared() const
    {
        return governor_;
    }

    FunctionRegistry &functions() { return functions_; }
    const FunctionRegistry &functions() const { return functions_; }
    const ContextTree &contexts() const { return contexts_; }

    /** Intern a function name (convenience). */
    FunctionId fn(std::string_view name) { return functions_.intern(name); }

    /** @name Control flow */
    /// @{

    /** Enter a function; every enter must pair with a leave. */
    void enter(FunctionId fn);

    /** Convenience: intern and enter. */
    void enter(std::string_view name) { enter(functions_.intern(name)); }

    /** Leave the current function. */
    void leave();

    /** Context of the innermost active frame. */
    ContextId currentContext() const;

    /** Call number of the innermost active frame. */
    CallNum currentCall() const;

    /**
     * Call number the next enter() assigns. Calls are numbered densely
     * from 1, so every call made so far is below it.
     */
    CallNum nextCall() const { return nextCall_; }

    /** Current call depth (of the current thread). */
    std::size_t callDepth() const { return thread().frames.size(); }

    /// @}

    /** @name Threads
     *
     * The guest models serial execution of a multi-threaded program:
     * one thread runs at a time and switchThread() is the scheduling
     * point (how a DBI framework like Valgrind serializes threads).
     * Each thread has its own call stack and scratch stack; the heap
     * and all data are shared, so cross-thread producer/consumer
     * relationships are visible to the tools.
     */
    /// @{

    /** Create a new thread (initially with an empty call stack). */
    ThreadId spawnThread();

    /** Switch execution to a thread; notifies tools. */
    void switchThread(ThreadId tid);

    /** The currently executing thread. */
    ThreadId currentThread() const { return currentTid_; }

    std::size_t numThreads() const { return threads_.size(); }

    /**
     * Report a barrier across all threads: every thread's subsequent
     * work is ordered after every thread's preceding work. Workloads
     * call this once per barrier instance (the guest serializes
     * threads, so the call marks the synchronization point).
     */
    void barrier();

    /// @}

    /** @name Guest memory */
    /// @{

    /** One heap allocation, with the workload's tag for reporting. */
    struct Allocation
    {
        Addr base;
        std::uint64_t size;
        std::string tag;
    };

    /** Allocate guest heap memory; returns its guest base address. */
    Addr alloc(std::size_t bytes, std::string_view tag = "");

    /** All heap allocations, in ascending base order. */
    const std::vector<Allocation> &allocations() const
    {
        return allocations_;
    }

    /**
     * Index of the allocation covering addr, or -1 (scratch stack,
     * allocator headers, code).
     */
    int allocationOf(Addr addr) const;

    /**
     * Allocate scratch space in the current frame; reclaimed when the
     * frame is left. Used for argument spill slots so that by-value
     * argument passing is visible as memory communication.
     */
    Addr stackAlloc(std::size_t bytes);

    /** Current thread's scratch-stack pointer (see StackMark). */
    Addr stackPointer() const { return thread().stackPtr; }

    /** Restore the current thread's scratch-stack pointer. */
    void
    setStackPointer(Addr sp)
    {
        thread().stackPtr = sp;
    }

    /** Emit a read of size bytes at addr. */
    void read(Addr addr, unsigned size);

    /** Emit a write of size bytes at addr. */
    void write(Addr addr, unsigned size);

    /** Total guest heap bytes allocated so far. */
    std::uint64_t heapBytes() const { return heapPtr_ - kHeapBase; }

    /// @}

    /** @name Computation */
    /// @{

    /** Retire integer operations. */
    void iop(std::uint64_t n = 1);

    /** Retire floating-point operations. */
    void flop(std::uint64_t n = 1);

    /** Retire a conditional branch. */
    void branch(bool taken);

    /// @}

    /**
     * Bracket writes that represent program input (file contents,
     * command-line data). Writes between beginInput and endInput are
     * attributed to the synthetic "*input*" producer, so first reads of
     * input data classify as communication from the outside world.
     */
    void beginInput();
    void endInput();

    /** @name System calls
     *
     * System calls are not visible to a DBI framework beyond their
     * entry: the paper captures a syscall's name and the bytes crossing
     * the user/kernel boundary, but not the kernel's internal work.
     * These helpers model exactly that: a call to the function
     * "sys_<name>" whose only visible effects are the buffer bytes the
     * kernel reads (an output syscall) or writes (an input syscall).
     */
    /// @{

    /**
     * An output syscall (write, send, ...): the kernel consumes
     * size bytes at addr. Appears as function "sys_<name>" reading the
     * buffer.
     */
    void syscallOut(std::string_view name, Addr addr, unsigned size);

    /**
     * An input syscall (read, recv, ...): the kernel produces size
     * bytes at addr. Appears as function "sys_<name>" writing the
     * buffer, so first reads of the data classify as communication
     * from the kernel.
     */
    void syscallIn(std::string_view name, Addr addr, unsigned size);

    /// @}

    /** The synthetic input function id. */
    FunctionId inputFunction() const { return inputFn_; }

    /**
     * Mark the region of interest (PARSEC's __parsec_roi_begin/end):
     * tools configured for ROI-only collection restrict themselves to
     * the bracketed region. Purely advisory; nesting is not allowed.
     */
    void roiBegin();
    void roiEnd();

    /** True between roiBegin() and roiEnd(). */
    bool inRoi() const { return roiActive_; }

    /** Finish the program: pops nothing, notifies tools. Idempotent. */
    void finish();

    /** Virtual time in retired operations. */
    Tick now() const { return counters_.instructions(); }

    const GuestCounters &counters() const { return counters_; }

    /** @name Checkpointing
     *
     * The checkpoint layer (core/checkpoint.hh) snapshots a replay at
     * block boundaries. saveState() serializes everything the guest
     * owns — function names, context tree, per-thread call stacks,
     * allocations, counters, ROI flag, virtual clock — in a form
     * restoreState() can rebuild deterministically: names and contexts
     * are re-interned in id order, so a restored guest assigns the
     * same ids a fresh replay would.
     */
    /// @{

    /** Serialize the full guest state. */
    void saveState(ByteSink &sink);

    /**
     * Restore state saved by saveState() into a freshly constructed
     * guest with the same program name and no events delivered yet
     * (tools may be attached; their state is restored separately).
     * Returns false — leaving the guest unusable — on corrupt input
     * or an id mismatch.
     */
    bool restoreState(ByteSource &src);

    /// @}

  private:
    struct Frame
    {
        ContextId ctx;
        CallNum call;
        Addr stackWatermark;
    };

    struct ThreadCtx
    {
        std::vector<Frame> frames;
        Addr stackPtr;
    };

    ThreadCtx &thread() { return threads_[currentTid_]; }
    const ThreadCtx &thread() const { return threads_[currentTid_]; }

    /**
     * Panic on an access outside any function or one whose range runs
     * past the top of the address space. Kept out of line so the
     * per-access checks in read()/write() stay one cheap branch.
     */
    [[noreturn, gnu::cold, gnu::noinline]] void
    rejectAccess(const char *kind, Addr addr, unsigned size) const;

    std::string programName_;
    GuestConfig config_;
    FunctionRegistry functions_;
    ContextTree contexts_;
    std::vector<Tool *> tools_;

    std::vector<ThreadCtx> threads_;
    ThreadId currentTid_ = 0;
    CallNum nextCall_ = 1;

    Addr heapPtr_ = kHeapBase;
    std::vector<Allocation> allocations_;

    FunctionId inputFn_;
    bool roiActive_ = false;
    bool finished_ = false;

    /** Shared so subsystems that outlive the guest (see
     *  governorShared()) keep it alive. */
    std::shared_ptr<sigil::MemoryGovernor> governor_;

    GuestCounters counters_;
};

/**
 * RAII scratch-stack mark: restores the stack pointer on scope exit so
 * argument spill slots pushed for one call are reused by the next call
 * at the same depth — exactly how a real outgoing-arguments area
 * behaves. Declare the mark before the ArgSlots and the callee's
 * ScopedFunction.
 */
class StackMark
{
  public:
    explicit StackMark(Guest &guest)
        : guest_(guest), saved_(guest.stackPointer())
    {}

    ~StackMark() { guest_.setStackPointer(saved_); }

    StackMark(const StackMark &) = delete;
    StackMark &operator=(const StackMark &) = delete;

  private:
    Guest &guest_;
    Addr saved_;
};

/** RAII function scope: enters on construction, leaves on destruction. */
class ScopedFunction
{
  public:
    ScopedFunction(Guest &guest, FunctionId fn) : guest_(guest)
    {
        guest_.enter(fn);
    }

    ScopedFunction(Guest &guest, std::string_view name) : guest_(guest)
    {
        guest_.enter(name);
    }

    ~ScopedFunction() { guest_.leave(); }

    ScopedFunction(const ScopedFunction &) = delete;
    ScopedFunction &operator=(const ScopedFunction &) = delete;

  private:
    Guest &guest_;
};

} // namespace sigil::vg

#endif // SIGIL_VG_GUEST_HH
