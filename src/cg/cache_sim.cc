#include "cache_sim.hh"

#include "support/logging.hh"

namespace sigil::cg {

namespace {

unsigned
log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal("cache %s must be a nonzero power of two (got %llu)", what,
              static_cast<unsigned long long>(v));
    unsigned s = 0;
    while ((v >> s) != 1)
        ++s;
    return s;
}

} // namespace

CacheLevel::CacheLevel(const CacheConfig &config)
    : lineBytes_(config.lineBytes),
      lineShift_(log2Exact(config.lineBytes, "line size")),
      assoc_(config.associativity)
{
    if (assoc_ == 0)
        fatal("cache associativity must be > 0");
    std::uint64_t lines = config.sizeBytes / config.lineBytes;
    if (lines == 0 || lines % assoc_ != 0)
        fatal("cache size must be a multiple of line size * associativity");
    numSets_ = lines / assoc_;
    setShift_ = log2Exact(numSets_, "set count");
    // A line number is an address shifted right by lineShift_, so a tag
    // has at most 64 - lineShift_ - setShift_ bits; two spare bits keep
    // `tag << 1 | dirty` clear of kInvalid for every address.
    if (lineShift_ + setShift_ < 2)
        fatal("cache line size times set count must be at least 4 bytes");
    sets_.assign(lines, kInvalid);
}

bool
CacheLevel::accessLine(std::uint64_t line_number, bool is_write)
{
    ++accesses_;
    wroteBack_ = false;
    std::uint64_t set = line_number & (numSets_ - 1);
    std::uint64_t key = (line_number >> setShift_) << 1;
    std::uint64_t dirty = is_write ? 1 : 0;
    std::uint64_t *ways = sets_.data() + set * assoc_;

    for (unsigned w = 0; w < assoc_; ++w) {
        std::uint64_t e = ways[w];
        if ((e & ~std::uint64_t{1}) == key) {
            // Hit: rotate the entry to the front, keeping its dirty bit.
            for (unsigned i = w; i > 0; --i)
                ways[i] = ways[i - 1];
            ways[0] = e | dirty;
            return true;
        }
    }
    ++misses_;
    // Miss: the last way is the LRU line (or an invalid way).
    std::uint64_t victim = ways[assoc_ - 1];
    if (victim != kInvalid && (victim & 1) != 0) {
        ++writeBacks_;
        wroteBack_ = true;
        writeBackLine_ = ((victim >> 1) << setShift_) | set;
    }
    for (unsigned i = assoc_ - 1; i > 0; --i)
        ways[i] = ways[i - 1];
    ways[0] = key | dirty;
    return false;
}

CacheSim::CacheSim()
    : CacheSim(CacheConfig{32 * 1024, 8, 64},
               CacheConfig{8 * 1024 * 1024, 16, 64})
{}

CacheSim::CacheSim(const CacheConfig &d1, const CacheConfig &ll)
    : d1_(d1), ll_(ll),
      lineShift_(log2Exact(d1.lineBytes, "line size"))
{
    if (d1.lineBytes != ll.lineBytes)
        fatal("D1 and LL must share a line size");
}

CacheAccessResult
CacheSim::access(vg::Addr addr, unsigned size, bool is_write)
{
    CacheAccessResult res;
    if (size == 0)
        return res;
    std::uint64_t first = addr >> lineShift_;
    std::uint64_t last = (addr + size - 1) >> lineShift_;
    for (std::uint64_t line = first; line <= last; ++line) {
        // Last-line filter: a repeat of the immediately preceding
        // access is a guaranteed MRU hit. A write through the filter
        // requires the dirty bit to be set already; otherwise fall
        // through so accessLine records it.
        if (haveLastLine_ && line == lastLine_ &&
            (!is_write || lastLineDirty_)) {
            d1_.countFilteredHit();
            continue;
        }
        if (!d1_.accessLine(line, is_write)) {
            ++res.d1Misses;
            // A dirty line displaced from D1 is written back to LL.
            if (d1_.lastAccessWroteBack())
                ll_.accessLine(d1_.lastWriteBackLine(), true);
            if (!ll_.accessLine(line, is_write))
                ++res.llMisses;
        }
        haveLastLine_ = true;
        lastLine_ = line;
        lastLineDirty_ = is_write;
    }
    return res;
}

} // namespace sigil::cg
