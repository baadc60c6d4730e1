/**
 * @file
 * Pending re-use runs, stored once per run instead of once per unit.
 *
 * The paper's shadow object (Table I) keeps, per unit, the current
 * re-use run: how often its last reader has read it and the first and
 * last tick of those reads. One access stamps the same run on every
 * unit it covers, so a table of per-unit records repeats one value
 * across a whole access. The run table stores each distinct run once,
 * as a record that also counts the units naming it, and a unit names
 * its run through its hot record: ShadowHot::reader holds either a
 * plain reader stamp (no pending run) or a tagged run id (the reader
 * stamp lives in the record).
 *
 * Every operation acts on a group of n units that name the same run,
 * and changes exactly their share of it:
 *  - extend(): the run's reader reads the group again. A group that
 *    holds all of the record's units updates it in place; otherwise the
 *    group splits off a record of its own;
 *  - start(): the group starts a run of a new reader (the caller has
 *    closed the old one with release());
 *  - release(): the group leaves its run; a record no unit names any
 *    more is freed.
 * No state is kept between operations, so records never merge: two
 * groups that reach equal state keep a record each (a checkpoint
 * restore merges them). A record is only made for a group an access
 * forms, so the live records follow the accesses, not the units.
 */

#ifndef SIGIL_SHADOW_RUN_TABLE_HH
#define SIGIL_SHADOW_RUN_TABLE_HH

#include <cstdint>
#include <vector>

#include "shadow/stamp_table.hh"
#include "support/logging.hh"
#include "vg/types.hh"

namespace sigil::shadow {

/** One pending re-use run and the number of units naming it. */
struct ReuseRun
{
    /** The reader whose consecutive reads form the run. */
    StampId reader = 0;
    /** Reads by the reader in this run; 0 once the run is closed. */
    std::uint32_t reads = 0;
    /** Timestamp of the run's first and most recent read. */
    vg::Tick firstRead = 0;
    vg::Tick lastRead = 0;
    /** Units whose hot record names this run. */
    std::uint64_t units = 0;
};

/** The records of every pending re-use run of one shadow. */
class RunTable
{
  public:
    /** Tag bit of a run id in ShadowHot::reader. */
    static constexpr StampId kRunTag = StampId{1} << 31;

    /** Whether a hot reader field names a run rather than a stamp. */
    static bool isRun(StampId v) { return (v & kRunTag) != 0; }

    /** The record of a run id. */
    ReuseRun &at(StampId v) { return runs_[v & ~kRunTag]; }
    const ReuseRun &at(StampId v) const { return runs_[v & ~kRunTag]; }

    /** The reader stamp a hot reader field names. */
    StampId
    readerOf(StampId v) const
    {
        return isRun(v) ? at(v).reader : v;
    }

    /**
     * n units start a run of reader at tick (their old run, if any, is
     * already released); returns its run id.
     */
    StampId
    start(StampId reader, vg::Tick tick, std::uint64_t n)
    {
        return add(ReuseRun{reader, 1, tick, tick, n});
    }

    /**
     * n units of run v are read again by its reader at tick; returns
     * the run id they name afterwards.
     */
    StampId
    extend(StampId v, vg::Tick tick, std::uint64_t n)
    {
        ReuseRun &r = at(v);
        const std::uint32_t reads = r.reads + 1;
        const vg::Tick first = r.reads == 0 ? tick : r.firstRead;
        if (r.units == n) {
            // The group is the whole run: update it in place.
            r.reads = reads;
            r.firstRead = first;
            r.lastRead = tick;
            return v;
        }
        // Split the group off; the rest keeps its state.
        r.units -= n;
        return add(ReuseRun{r.reader, reads, first, tick, n});
    }

    /** n units leave run v; the record is freed when none is left. */
    void
    release(StampId v, std::uint64_t n)
    {
        ReuseRun &r = at(v);
        r.units -= n;
        if (r.units == 0) {
            free_.push_back(v & ~kRunTag);
            --live_;
        }
    }

    /** Store a new record; returns its run id. */
    StampId
    add(const ReuseRun &r)
    {
        std::uint32_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
            runs_[index] = r;
        } else {
            if (runs_.size() >= kRunTag)
                fatal("RunTable: run ids exhausted (%zu records)",
                      runs_.size());
            index = static_cast<std::uint32_t>(runs_.size());
            runs_.push_back(r);
        }
        if (++live_ > peak_)
            peak_ = live_;
        return index | kRunTag;
    }

    /** Visit every live record (in no particular order). */
    template <typename Fn>
    void
    forEachLive(Fn &&fn)
    {
        for (ReuseRun &r : runs_) {
            if (r.units != 0)
                fn(r);
        }
    }

    /** Records live now, and at most at once. */
    std::uint64_t live() const { return live_; }
    std::uint64_t peak() const { return peak_; }

  private:
    std::vector<ReuseRun> runs_;
    /** Indexes of freed records, reused before the table grows. */
    std::vector<std::uint32_t> free_;
    std::uint64_t live_ = 0;
    std::uint64_t peak_ = 0;
};

} // namespace sigil::shadow

#endif // SIGIL_SHADOW_RUN_TABLE_HH
