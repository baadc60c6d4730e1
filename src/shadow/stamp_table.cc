#include "stamp_table.hh"

#include <limits>

#include "support/logging.hh"

namespace sigil::shadow {

namespace {

/** splitmix64 finalizer; mixes each field into the running hash. */
inline std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return h;
}

} // namespace

std::size_t
StampTable::WriterHash::operator()(const WriterStamp &s) const
{
    std::uint64_t h = mix(0, s.seq);
    h = mix(h, (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(s.ctx))
                << 32) |
                   s.thread);
    return static_cast<std::size_t>(h);
}

StampTable::StampTable()
{
    // Reserved null entries: id 0 is the default (never written /
    // never read) state, so a zero-filled hot array needs no fixup.
    writers_.push_back(WriterStamp{});
    writerIndex_.emplace(WriterStamp{}, 0);
    readers_.push_back(ReaderStamp{});
}

StampId
StampTable::internWriter(const WriterStamp &s)
{
    if (s == lastWriter_)
        return lastWriterId_;
    auto [it, inserted] =
        writerIndex_.try_emplace(s, static_cast<StampId>(writers_.size()));
    if (inserted) {
        if (writers_.size() >
            std::numeric_limits<StampId>::max()) {
            fatal("StampTable: writer stamp ids exhausted (%zu entries)",
                  writers_.size());
        }
        writers_.push_back(s);
    }
    lastWriter_ = s;
    lastWriterId_ = it->second;
    return it->second;
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
