#include "stamp_table.hh"

#include <limits>

#include "support/logging.hh"

namespace sigil::shadow {

StampTable::StampTable()
{
    // Reserved null entries: id 0 is the default (never written /
    // never read) state, so a zero-filled hot array needs no fixup.
    writers_.push_back(WriterStamp{});
    readers_.push_back(ReaderStamp{});
}

StampId &
StampTable::writerSlot(const WriterStamp &s)
{
    if (s.ctx < vg::kInvalidContext)
        panic("StampTable: writer context %d out of range", s.ctx);
    std::size_t i = static_cast<std::size_t>(s.seq);
    std::vector<StampId> *index = &writerBySeq_;
    if (s.seq == 0) {
        if (s.thread >= writerByThreadCtx_.size())
            writerByThreadCtx_.resize(static_cast<std::size_t>(s.thread) + 1);
        index = &writerByThreadCtx_[s.thread];
        i = static_cast<std::size_t>(s.ctx + 1);
    }
    // Seqs ascend like call numbers, so resize's geometric growth keeps
    // the cost per new segment amortized constant.
    if (i >= index->size())
        index->resize(i + 1, 0);
    return (*index)[i];
}

bool
StampTable::writerFits(const WriterStamp &s) const
{
    if (s.ctx < vg::kInvalidContext)
        return false;
    if (s.seq == 0 || s.seq >= writerBySeq_.size())
        return true;
    const StampId id = writerBySeq_[static_cast<std::size_t>(s.seq)];
    return id == 0 || writers_[id] == s;
}

StampId
StampTable::internWriter(const WriterStamp &s)
{
    if (s == lastWriter_)
        return lastWriterId_;
    StampId &slot = writerSlot(s);
    if (slot == 0 && !(s == WriterStamp{})) {
        if (writers_.size() >
            std::numeric_limits<StampId>::max()) {
            fatal("StampTable: writer stamp ids exhausted (%zu entries)",
                  writers_.size());
        }
        slot = static_cast<StampId>(writers_.size());
        writers_.push_back(s);
    } else if (!(writers_[slot] == s)) {
        panic("StampTable: segment %llu written under (ctx %d, thread %u) "
              "and (ctx %d, thread %u)",
              static_cast<unsigned long long>(s.seq), writers_[slot].ctx,
              writers_[slot].thread, s.ctx, s.thread);
    }
    lastWriter_ = s;
    lastWriterId_ = slot;
    return slot;
}

StampId &
StampTable::readerSlot(const ReaderStamp &s)
{
    std::vector<StampId> &index = s.call != 0 ? readerByCall_ : readerByCtx_;
    if (s.call == 0 && s.ctx < vg::kInvalidContext)
        panic("StampTable: reader context %d out of range", s.ctx);
    // vector::resize grows the capacity geometrically, so a stream of
    // ascending call numbers costs amortized constant time per call.
    const std::size_t i = s.call != 0
                              ? static_cast<std::size_t>(s.call)
                              : static_cast<std::size_t>(s.ctx + 1);
    if (i >= index.size())
        index.resize(i + 1, 0);
    return index[i];
}

bool
StampTable::readerFits(const ReaderStamp &s) const
{
    if (s.ctx < vg::kInvalidContext)
        return false;
    if (s.call == 0 || s.call >= readerByCall_.size())
        return true;
    const StampId id = readerByCall_[s.call];
    return id == 0 || readers_[id].ctx == s.ctx;
}

StampId
StampTable::internReader(const ReaderStamp &s)
{
    if (s == lastReader_)
        return lastReaderId_;
    StampId &slot = readerSlot(s);
    if (slot == 0 && !(s == ReaderStamp{})) {
        if (readers_.size() >
            std::numeric_limits<StampId>::max()) {
            fatal("StampTable: reader stamp ids exhausted (%zu entries)",
                  readers_.size());
        }
        slot = static_cast<StampId>(readers_.size());
        readers_.push_back(s);
    } else if (readers_[slot].ctx != s.ctx) {
        panic("StampTable: call %llu read under contexts %d and %d",
              static_cast<unsigned long long>(s.call), readers_[slot].ctx,
              s.ctx);
    }
    lastReader_ = s;
    lastReaderId_ = slot;
    return slot;
}

} // namespace sigil::shadow
