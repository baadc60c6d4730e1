/**
 * @file
 * Minimal fixed-width text-table printer used by the benchmark harnesses
 * to render the paper's tables and figure series as aligned rows.
 * Also the printf-style string helpers the renderers share.
 */

#ifndef SIGIL_SUPPORT_TABLE_HH
#define SIGIL_SUPPORT_TABLE_HH

#include <cstdio>
#include <string>
#include <vector>

namespace sigil {

/** A column-aligned text table. */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells) { header_ = std::move(cells); }

    /** Append one row; short rows are padded with empty cells. */
    void addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    /** Render the table to a string. */
    std::string render() const;

    /** Render and print to stdout. */
    void print() const { std::fputs(render().c_str(), stdout); }

    std::size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style helper returning std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * printf-style append to out, with no length limit: a line that
 * outgrows the stack buffer is formatted again straight into out.
 */
void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace sigil

#endif // SIGIL_SUPPORT_TABLE_HH
