/**
 * @file
 * Instrumentation-tool interface.
 *
 * Plays the role of Valgrind's tool API: the Guest dispatches a stream of
 * primitive events (function enter/leave, memory reads/writes, retired
 * operations, branches) to every attached tool. Tools query the Guest for
 * ambient state (current context, call number, virtual time).
 */

#ifndef SIGIL_VG_TOOL_HH
#define SIGIL_VG_TOOL_HH

#include <cstdint>

#include "vg/types.hh"

namespace sigil::vg {

class EventBuffer;
class Guest;

/** Base class for instrumentation tools. */
class Tool
{
  public:
    virtual ~Tool() = default;

    /** Called once when the tool is attached to a guest. */
    virtual void attach(const Guest &guest) { guest_ = &guest; }

    /**
     * A batch of buffered events (batched-transport mode). The default
     * implementation replays the batch through the per-event virtuals
     * below, with the guest's ambient-state accessors answering from
     * the batch's dispatch cursor, so tools that never heard of
     * batching behave identically. Hot tools override this and consume
     * the buffer's lanes directly.
     */
    virtual void processBatch(const EventBuffer &batch);

    /** A function was entered, creating context ctx with call number. */
    virtual void fnEnter(ContextId ctx, CallNum call)
    {
        (void)ctx;
        (void)call;
    }

    /** The current function returned. */
    virtual void fnLeave(ContextId ctx, CallNum call)
    {
        (void)ctx;
        (void)call;
    }

    /** The guest read size bytes at addr. */
    virtual void memRead(Addr addr, unsigned size)
    {
        (void)addr;
        (void)size;
    }

    /** The guest wrote size bytes at addr. */
    virtual void memWrite(Addr addr, unsigned size)
    {
        (void)addr;
        (void)size;
    }

    /** The guest retired integer and floating-point operations. */
    virtual void op(std::uint64_t iops, std::uint64_t flops)
    {
        (void)iops;
        (void)flops;
    }

    /** The guest executed a conditional branch. */
    virtual void branch(bool taken) { (void)taken; }

    /** Execution switched to another guest thread. */
    virtual void threadSwitch(ThreadId tid) { (void)tid; }

    /**
     * All guest threads synchronized at a barrier (the guest reports
     * it once, at the point every thread has arrived).
     */
    virtual void barrier() {}

    /**
     * The guest entered (true) or left (false) its region of interest
     * (PARSEC's __parsec_roi_begin/end convention). Tools may restrict
     * collection to the ROI.
     */
    virtual void roi(bool active) { (void)active; }

    /**
     * Drain any asynchronous state the tool owns so that queries
     * observe every event delivered so far. Called by Guest::sync()
     * and Guest::finish() after the guest's own buffers have drained;
     * forwarding tools pass it on, and tools without internal
     * concurrency ignore it.
     */
    virtual void sync() {}

    /** The guest program finished; flush any pending state. */
    virtual void finish() {}

  protected:
    const Guest *guest_ = nullptr;
};

} // namespace sigil::vg

#endif // SIGIL_VG_TOOL_HH
