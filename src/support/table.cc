#include "table.hh"

#include <cstdarg>

namespace sigil {

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths;
    auto widen = [&](const std::vector<std::string> &row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    auto emit = [&](std::string &out, const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < row.size() ? row[i] : "";
            cell.resize(widths[i], ' ');
            out += cell;
            if (i + 1 < widths.size())
                out += "  ";
        }
        while (!out.empty() && out.back() == ' ')
            out.pop_back();
        out += '\n';
    };

    std::string out;
    if (!header_.empty()) {
        emit(out, header_);
        std::string rule;
        for (std::size_t i = 0; i < widths.size(); ++i) {
            rule += std::string(widths[i], '-');
            if (i + 1 < widths.size())
                rule += "  ";
        }
        out += rule + '\n';
    }
    for (const auto &row : rows_)
        emit(out, row);
    return out;
}

namespace {

/** Append the formatted text to out; false on a format error. */
bool
vappendf(std::string &out, const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    char buf[256];
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    if (n >= 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
        out.append(buf, static_cast<std::size_t>(n));
    } else if (n >= 0) {
        std::size_t at = out.size();
        out.resize(at + static_cast<std::size_t>(n));
        // vsnprintf writes n chars plus the terminator, which lands
        // on the string's own trailing null.
        std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1,
                       fmt, ap2);
    }
    va_end(ap2);
    return n >= 0;
}

} // namespace

std::string
strformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out;
    bool ok = vappendf(out, fmt, ap);
    va_end(ap);
    return ok ? out : "<format error>";
}

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vappendf(out, fmt, ap);
    va_end(ap);
}

} // namespace sigil
