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

std::size_t
StampTable::ReaderHash::operator()(const ReaderStamp &s) const
{
    std::uint64_t h = mix(0, s.call);
    h = mix(h, static_cast<std::uint32_t>(s.ctx));
    return static_cast<std::size_t>(h);
}

StampTable::StampTable()
{
    // Reserved null entries: id 0 is the default (never written /
    // never read) state, so a zero-filled hot array needs no fixup.
    writers_.push_back(WriterStamp{});
    writerIndex_.emplace(WriterStamp{}, 0);
    readers_.push_back(ReaderStamp{});
    readerIndex_.emplace(ReaderStamp{}, 0);
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

StampId
StampTable::internReader(const ReaderStamp &s)
{
    if (s == lastReader_)
        return lastReaderId_;
    auto [it, inserted] =
        readerIndex_.try_emplace(s, static_cast<StampId>(readers_.size()));
    if (inserted) {
        if (readers_.size() >
            std::numeric_limits<StampId>::max()) {
            fatal("StampTable: reader stamp ids exhausted (%zu entries)",
                  readers_.size());
        }
        readers_.push_back(s);
    }
    lastReader_ = s;
    lastReaderId_ = it->second;
    return it->second;
}

} // namespace sigil::shadow
