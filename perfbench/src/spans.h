#pragma once

/**
 * @file
 * The traced run's span model: every span has a name, a start, an end
 * and a parent, and all spans of one query share its query id. Spans
 * are recorded by the benchmark around its calls into the library,
 * kept in memory, and written out when the run ends. A span log is
 * single-threaded: concurrent serving stamps per-request slots first
 * and the generator thread turns them into spans afterwards.
 */

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

struct Span
{
    /** Static string; spans of one layer share the pointer. */
    const char *name = "";
    std::uint64_t query = 0;
    /** 1-based position in the log; 0 means "no parent". */
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanLog
{
  public:
    /** Append a span and return its id (for use as a parent). */
    std::uint32_t add(const char *name, std::uint64_t query,
                      std::uint32_t parent, std::int64_t start_ns,
                      std::int64_t end_ns);

    /** Set the end of a span added before its children. */
    void close(std::uint32_t id, std::int64_t end_ns)
    {
        spans_.at(id - 1).endNs = end_ns;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span, in log order: its duration minus the
     * part of [start, end] covered by the union of its children.
     */
    std::vector<std::int64_t> selfTimesNs() const;

    /**
     * One JSON object per span and line: query, id, parent, name,
     * start_us and end_us relative to `origin_ns`, and self_us. Spans
     * whose query id is not a multiple of `query_stride` are skipped.
     */
    void writeJsonl(std::ostream &out, std::int64_t origin_ns,
                    std::uint64_t query_stride) const;

  private:
    std::vector<Span> spans_;
};

/**
 * Self time of one interval given its children's intervals (any order,
 * possibly overlapping or sticking out of the parent): the length of
 * [start, end] not covered by any child.
 */
std::int64_t selfTimeNs(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            children);

} // namespace perfbench
