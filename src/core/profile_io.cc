#include "profile_io.hh"

#include <charconv>
#include <concepts>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"

namespace sigil::core {

namespace {

/** Split a line on tabs. */
std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = line.find('\t', start);
        if (pos == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, pos - start));
        start = pos + 1;
    }
}

/** Internal transport of a structured parse error (never escapes). */
struct ProfileAbort
{
    vg::TraceError err;
};

/**
 * Position of the line being parsed; every rejection carries it plus
 * the offending token, so a bad profile is diagnosable byte-exactly.
 */
struct LineCtx
{
    std::uint64_t line = 0;   ///< 1-based line number
    std::uint64_t offset = 0; ///< byte offset of the line start

    [[noreturn]] void
    reject(vg::TraceErrorCause cause, std::string detail) const
    {
        vg::TraceError e;
        e.cause = cause;
        e.line = line;
        e.byteOffset = offset;
        e.detail = std::move(detail);
        throw ProfileAbort{e};
    }

    /**
     * A fully consumed decimal of type T: no leading whitespace or
     * '+', and no '-' unless T is signed. Out-of-range values reject.
     */
    template <typename T>
    T
    decimal(const std::string &s, const char *what) const
    {
        T v = 0;
        const char *end = s.data() + s.size();
        auto [ptr, ec] = std::from_chars(s.data(), end, v);
        if (ec != std::errc() || ptr != end)
            reject(vg::TraceErrorCause::BadRecord,
                   std::string("bad ") + what + " value '" + s + "'");
        return v;
    }

    std::uint64_t
    u64(const std::string &s, const char *what) const
    {
        return decimal<std::uint64_t>(s, what);
    }

    std::int64_t
    i64(const std::string &s, const char *what) const
    {
        return decimal<std::int64_t>(s, what);
    }
};

/**
 * Buffered text writer for the profile and event files: records are
 * formatted through a raw cursor into a fixed 64 KiB array, which goes
 * to the stream whenever a record might not fit. The output is
 * byte-identical to streaming the same values into a default-formatted
 * std::ostream.
 *
 * Every record starts with record(), the one room check it pays: it
 * frees kRecordBytes, more than the fixed part of any record takes
 * (the widest, a profile row, holds 18 numbers, a tag and tabs).
 * Literal tags, chars and integers then go in unchecked. Names are the
 * only unbounded fields: name() makes its own room and leaves
 * kRecordBytes free behind it for the rest of the record. A record
 * with a bin per histogram bin pays one check per bin.
 */
class TextWriter
{
  public:
    explicit TextWriter(std::ostream &os) : os_(os) {}

    /** The cursor points into this object's own buffer. */
    TextWriter(const TextWriter &) = delete;
    TextWriter &operator=(const TextWriter &) = delete;

    /** Open a record: make room for its fixed part. */
    TextWriter &
    record()
    {
        if (room() < kRecordBytes)
            flush();
        return *this;
    }

    /** A literal tag or separator. */
    template <std::size_t N>
        requires(N <= 32)
    TextWriter &
    operator<<(const char (&s)[N])
    {
        std::memcpy(cur_, s, N - 1);
        cur_ += N - 1;
        return *this;
    }

    /**
     * Exactly char: bool, floating-point and other scalar types would
     * otherwise convert to it silently and corrupt the file format.
     */
    template <std::same_as<char> C>
    TextWriter &
    operator<<(C c)
    {
        *cur_++ = c;
        return *this;
    }

    /** Char-sized integers stream as characters, so they are excluded. */
    template <std::integral T>
        requires(sizeof(T) > 1)
    TextWriter &
    operator<<(T v)
    {
        // kNumberBytes hold any 64-bit decimal, sign included.
        cur_ = std::to_chars(cur_, cur_ + kNumberBytes, v).ptr;
        return *this;
    }

    /**
     * A function, path or program name, with tabs and newlines turned
     * into spaces so it stays one field. Leaves kRecordBytes of room.
     */
    TextWriter &
    name(std::string_view s)
    {
        while (s.size() + kRecordBytes > room()) {
            if (cur_ != buf_) {
                flush();
                continue;
            }
            // Longer than an empty buffer holds: send it in pieces.
            const std::size_t n = kBufBytes - kRecordBytes;
            putName(s.substr(0, n));
            s.remove_prefix(n);
            flush();
        }
        putName(s);
        return *this;
    }

    /** Write out everything still buffered. */
    void
    flush()
    {
        os_.write(buf_, cur_ - buf_);
        cur_ = buf_;
    }

  private:
    static constexpr std::size_t kBufBytes = 64 * 1024;
    static constexpr std::size_t kNumberBytes = 20;
    static constexpr std::size_t kRecordBytes = 512;

    std::size_t room() const
    {
        return static_cast<std::size_t>(buf_ + kBufBytes - cur_);
    }

    void
    putName(std::string_view s)
    {
        for (char c : s)
            *cur_++ = (c == '\t' || c == '\n') ? ' ' : c;
    }

    std::ostream &os_;
    char *cur_ = buf_;
    /** Last, so an overrun runs into the object's end. */
    char buf_[kBufBytes];
};

template <typename T>
concept TextWritable = requires(TextWriter &w, T v) { w << v; };
static_assert(TextWritable<char> && TextWritable<std::uint64_t> &&
                  TextWritable<std::int32_t> &&
                  TextWritable<const char (&)[5]>,
              "TextWriter renders the profile's field types");
static_assert(!TextWritable<bool> && !TextWritable<double> &&
                  !TextWritable<float> && !TextWritable<std::uint8_t> &&
                  !TextWritable<std::string_view>,
              "TextWriter must not render a type as a raw char, nor an "
              "unbounded string without its room check");

template <std::size_t N>
void
writeBounds(TextWriter &os, const char (&tag)[N], const BoundsHistogram &h)
{
    os.record() << "breakdown\t" << tag;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        os.record() << '\t' << h.binCount(i);
    os << '\n';
}

} // namespace

void
writeProfile(std::ostream &out, const SigilProfile &profile)
{
    TextWriter os(out);
    os.record() << "sigil-profile\t1\n";
    os.record() << "program\t";
    os.name(profile.program) << '\n';
    os.record() << "granularity\t" << profile.granularityShift << '\n';
    os.record() << "shadow\t" << profile.shadowPeakBytes << '\t'
                << profile.shadowEvictions << '\n';

    for (const SigilRow &r : profile.rows) {
        const CommAggregates &a = r.agg;
        os.record() << "row\t" << r.ctx << '\t' << r.parent << '\t';
        os.name(r.fnName) << '\t';
        os.name(r.displayName) << '\t';
        os.name(r.path) << '\t' << a.calls << '\t' << a.iops << '\t'
                        << a.flops << '\t' << a.readBytes << '\t'
                        << a.writeBytes << '\t' << a.uniqueLocalBytes << '\t'
                        << a.nonuniqueLocalBytes << '\t'
                        << a.uniqueInputBytes << '\t'
                        << a.nonuniqueInputBytes << '\t'
                        << a.uniqueOutputBytes << '\t'
                        << a.nonuniqueOutputBytes << '\t' << a.reusedUnits
                        << '\t' << a.reuseReads << '\t' << a.lifetimeSum
                        << '\t' << a.uniqueInterThreadBytes << '\t'
                        << a.nonuniqueInterThreadBytes << '\n';
        const LinearHistogram &h = a.lifetimeHist;
        if (h.totalCount() > 0) {
            os.record() << "hist\t" << r.ctx << '\t' << h.binWidth() << '\t'
                        << h.overflowCount() << '\t' << h.totalValue()
                        << '\t' << h.maxValue() << '\t' << h.numBins();
            for (std::size_t i = 0; i < h.numBins(); ++i)
                os.record() << '\t' << h.binCount(i);
            os << '\n';
        }
    }

    for (const CommEdge &e : profile.edges) {
        os.record() << "edge\t" << e.producer << '\t' << e.consumer << '\t'
                    << e.uniqueBytes << '\t' << e.nonuniqueBytes << '\n';
    }
    for (const ThreadCommEdge &e : profile.threadEdges) {
        os.record() << "tedge\t" << e.producer << '\t' << e.consumer
                    << '\t' << e.uniqueBytes << '\t' << e.nonuniqueBytes
                    << '\n';
    }

    writeBounds(os, "unit", profile.unitReuseBreakdown);
    writeBounds(os, "line", profile.lineReuseBreakdown);
    os.record() << "end\n";
    os.flush();
}

void
writeProfileFile(const std::string &path, const SigilProfile &profile)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeProfile(os, profile);
    if (!os)
        fatal("I/O error writing '%s'", path.c_str());
}

namespace {

SigilProfile
parseProfile(std::istream &is)
{
    SigilProfile profile;
    std::string line;
    bool saw_header = false;
    bool saw_end = false;
    std::unordered_map<std::string, vg::FunctionId> fn_ids;
    LineCtx at;
    std::uint64_t next_offset = 0;

    while (std::getline(is, line)) {
        ++at.line;
        at.offset = next_offset;
        next_offset += line.size() + 1;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f = splitTabs(line);
        const std::string &tag = f[0];

        if (!saw_header) {
            if (tag != "sigil-profile" || f.size() < 2 || f[1] != "1")
                at.reject(vg::TraceErrorCause::BadMagic,
                          "not a sigil profile header: '" + tag + "'");
            saw_header = true;
            continue;
        }
        if (tag == "program" && f.size() >= 2) {
            profile.program = f[1];
        } else if (tag == "granularity" && f.size() >= 2) {
            profile.granularityShift =
                static_cast<unsigned>(at.u64(f[1], "granularity"));
        } else if (tag == "shadow" && f.size() >= 3) {
            profile.shadowPeakBytes = at.u64(f[1], "shadow peak");
            profile.shadowEvictions = at.u64(f[2], "shadow evictions");
        } else if (tag == "row") {
            if (f.size() < 22)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short row line (" + std::to_string(f.size()) +
                              " of 22 fields)");
            // writeProfile emits rows densely (rows[i].ctx == i), so a
            // row may only revisit or extend the table by one: memory
            // stays bounded by the input.
            std::int64_t ctx = at.i64(f[1], "ctx");
            if (ctx < 0 ||
                static_cast<std::uint64_t>(ctx) > profile.rows.size())
                at.reject(vg::TraceErrorCause::BadRecord,
                          "row context " + f[1] + " out of range (" +
                              std::to_string(profile.rows.size()) +
                              " rows so far)");
            SigilRow r;
            r.ctx = static_cast<vg::ContextId>(ctx);
            r.parent =
                static_cast<vg::ContextId>(at.i64(f[2], "parent"));
            r.fnName = f[3];
            r.displayName = f[4];
            r.path = f[5];
            auto [it, inserted] = fn_ids.try_emplace(
                r.fnName, static_cast<vg::FunctionId>(fn_ids.size()));
            (void)inserted;
            r.fn = it->second;
            CommAggregates &a = r.agg;
            a.calls = at.u64(f[6], "calls");
            a.iops = at.u64(f[7], "iops");
            a.flops = at.u64(f[8], "flops");
            a.readBytes = at.u64(f[9], "readBytes");
            a.writeBytes = at.u64(f[10], "writeBytes");
            a.uniqueLocalBytes = at.u64(f[11], "ul");
            a.nonuniqueLocalBytes = at.u64(f[12], "nul");
            a.uniqueInputBytes = at.u64(f[13], "ui");
            a.nonuniqueInputBytes = at.u64(f[14], "nui");
            a.uniqueOutputBytes = at.u64(f[15], "uo");
            a.nonuniqueOutputBytes = at.u64(f[16], "nuo");
            a.reusedUnits = at.u64(f[17], "reusedUnits");
            a.reuseReads = at.u64(f[18], "reuseReads");
            a.lifetimeSum = at.u64(f[19], "lifetimeSum");
            a.uniqueInterThreadBytes = at.u64(f[20], "uit");
            a.nonuniqueInterThreadBytes = at.u64(f[21], "nit");
            std::size_t idx = static_cast<std::size_t>(ctx);
            if (idx == profile.rows.size())
                profile.rows.emplace_back();
            profile.rows[idx] = std::move(r);
        } else if (tag == "hist") {
            if (f.size() < 7)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short hist line");
            std::size_t ctx = at.u64(f[1], "hist ctx");
            std::uint64_t width = at.u64(f[2], "hist width");
            std::uint64_t overflow = at.u64(f[3], "hist overflow");
            std::uint64_t sum = at.u64(f[4], "hist sum");
            std::uint64_t max = at.u64(f[5], "hist max");
            std::size_t nbins = at.u64(f[6], "hist nbins");
            if (f.size() != 7 + nbins)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "hist bin count mismatch: header says " +
                              std::to_string(nbins) + ", line has " +
                              std::to_string(f.size() - 7));
            if (width == 0)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "hist bin width 0");
            std::vector<std::uint64_t> bins(nbins);
            for (std::size_t i = 0; i < nbins; ++i)
                bins[i] = at.u64(f[7 + i], "hist bin");
            if (ctx >= profile.rows.size())
                at.reject(vg::TraceErrorCause::BadRecord,
                          "hist for unknown context " +
                              std::to_string(ctx));
            LinearHistogram h(width);
            h.restore(std::move(bins), overflow, sum, max);
            profile.rows[ctx].agg.lifetimeHist = std::move(h);
        } else if (tag == "tedge") {
            if (f.size() < 5)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short tedge line");
            ThreadCommEdge e;
            e.producer = static_cast<vg::ThreadId>(
                at.u64(f[1], "producer tid"));
            e.consumer = static_cast<vg::ThreadId>(
                at.u64(f[2], "consumer tid"));
            e.uniqueBytes = at.u64(f[3], "unique");
            e.nonuniqueBytes = at.u64(f[4], "nonunique");
            profile.threadEdges.push_back(e);
        } else if (tag == "edge") {
            if (f.size() < 5)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short edge line");
            CommEdge e;
            e.producer =
                static_cast<vg::ContextId>(at.i64(f[1], "producer"));
            e.consumer =
                static_cast<vg::ContextId>(at.i64(f[2], "consumer"));
            e.uniqueBytes = at.u64(f[3], "unique");
            e.nonuniqueBytes = at.u64(f[4], "nonunique");
            profile.edges.push_back(e);
        } else if (tag == "breakdown") {
            if (f.size() < 2)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short breakdown line");
            std::vector<std::uint64_t> counts;
            for (std::size_t i = 2; i < f.size(); ++i)
                counts.push_back(at.u64(f[i], "breakdown"));
            if (f[1] == "unit")
                profile.unitReuseBreakdown.restore(counts);
            else if (f[1] == "line")
                profile.lineReuseBreakdown.restore(counts);
            else
                at.reject(vg::TraceErrorCause::BadRecord,
                          "unknown breakdown '" + f[1] + "'");
        } else if (tag == "end") {
            saw_end = true;
            break;
        } else {
            at.reject(vg::TraceErrorCause::UnknownSection,
                      "unknown tag '" + tag + "'");
        }
    }
    if (!saw_header) {
        at.offset = next_offset;
        at.reject(vg::TraceErrorCause::BadMagic, "empty input");
    }
    if (!saw_end) {
        ++at.line;
        at.offset = next_offset;
        at.reject(vg::TraceErrorCause::Truncated,
                  "input ended before 'end'");
    }
    return profile;
}

} // namespace

std::optional<SigilProfile>
tryReadProfile(std::istream &is, vg::TraceError &error)
{
    try {
        return parseProfile(is);
    } catch (const ProfileAbort &abort) {
        error = abort.err;
        return std::nullopt;
    }
}

SigilProfile
readProfile(std::istream &is)
{
    vg::TraceError error;
    std::optional<SigilProfile> profile = tryReadProfile(is, error);
    if (!profile)
        fatal("profile parse: %s", error.message().c_str());
    return *std::move(profile);
}

SigilProfile
readProfileFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    return readProfile(is);
}

void
writeEvents(std::ostream &out, const EventTrace &events)
{
    TextWriter os(out);
    os.record() << "sigil-events\t1\n";
    for (const EventRecord &r : events.records) {
        if (r.kind == EventRecord::Kind::Compute) {
            const ComputeEvent &c = r.compute;
            os.record() << "C\t" << c.seq << '\t' << c.predSeq << '\t'
                        << c.ctx << '\t' << c.call << '\t' << c.iops << '\t'
                        << c.flops << '\t' << c.reads << '\t' << c.writes
                        << '\n';
        } else {
            const XferEvent &x = r.xfer;
            os.record() << "X\t" << x.srcSeq << '\t' << x.dstSeq << '\t'
                        << x.bytes << '\n';
        }
    }
    os.record() << "end\n";
    os.flush();
}

void
writeEventsFile(const std::string &path, const EventTrace &events)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeEvents(os, events);
    if (!os)
        fatal("I/O error writing '%s'", path.c_str());
}

namespace {

EventTrace
parseEvents(std::istream &is)
{
    EventTrace trace;
    std::string line;
    bool saw_header = false;
    bool saw_end = false;
    LineCtx at;
    std::uint64_t next_offset = 0;
    while (std::getline(is, line)) {
        ++at.line;
        at.offset = next_offset;
        next_offset += line.size() + 1;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f = splitTabs(line);
        if (!saw_header) {
            if (f[0] != "sigil-events" || f.size() < 2 || f[1] != "1")
                at.reject(vg::TraceErrorCause::BadMagic,
                          "not a sigil event file header: '" + f[0] +
                              "'");
            saw_header = true;
            continue;
        }
        if (f[0] == "C") {
            if (f.size() < 9)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short compute line (" +
                              std::to_string(f.size()) +
                              " of 9 fields)");
            ComputeEvent c;
            c.seq = at.u64(f[1], "seq");
            c.predSeq = at.u64(f[2], "predSeq");
            c.ctx = static_cast<vg::ContextId>(at.i64(f[3], "ctx"));
            c.call = at.u64(f[4], "call");
            c.iops = at.u64(f[5], "iops");
            c.flops = at.u64(f[6], "flops");
            c.reads = at.u64(f[7], "reads");
            c.writes = at.u64(f[8], "writes");
            trace.records.push_back(EventRecord::makeCompute(c));
        } else if (f[0] == "X") {
            if (f.size() < 4)
                at.reject(vg::TraceErrorCause::BadRecord,
                          "short xfer line");
            XferEvent x;
            x.srcSeq = at.u64(f[1], "srcSeq");
            x.dstSeq = at.u64(f[2], "dstSeq");
            x.bytes = at.u64(f[3], "bytes");
            trace.records.push_back(EventRecord::makeXfer(x));
        } else if (f[0] == "end") {
            saw_end = true;
            break;
        } else {
            at.reject(vg::TraceErrorCause::UnknownSection,
                      "unknown tag '" + f[0] + "'");
        }
    }
    if (!saw_header) {
        at.offset = next_offset;
        at.reject(vg::TraceErrorCause::BadMagic, "empty input");
    }
    if (!saw_end) {
        ++at.line;
        at.offset = next_offset;
        at.reject(vg::TraceErrorCause::Truncated,
                  "input ended before 'end'");
    }
    return trace;
}

} // namespace

std::optional<EventTrace>
tryReadEvents(std::istream &is, vg::TraceError &error)
{
    try {
        return parseEvents(is);
    } catch (const ProfileAbort &abort) {
        error = abort.err;
        return std::nullopt;
    }
}

EventTrace
readEvents(std::istream &is)
{
    vg::TraceError error;
    std::optional<EventTrace> events = tryReadEvents(is, error);
    if (!events)
        fatal("event parse: %s", error.message().c_str());
    return *std::move(events);
}

EventTrace
readEventsFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    return readEvents(is);
}

} // namespace sigil::core
