#include "elasticrec/embedding/embedding_table.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <vector>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/runtime/thread_pool.h"

namespace erec::embedding {

namespace {

/** x86-64 transparent huge page size. */
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/** First-touch fill granule: a whole number of huge pages, so no two
 *  fill threads ever fault the same page. */
constexpr std::size_t kFillChunkBytes = 16 * kHugePageBytes;

/** Alignment of tables too small to be worth a huge page. */
constexpr std::size_t kCacheLineBytes = 64;

/** Charged by the gate around the pooled-gather loop. */
AllocRegion &
gatherRegion()
{
    static AllocRegion region("embedding-gather");
    return region;
}

/** SplitMix64-style row/lane hash for virtual tables. */
std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/** Hash base of one row of a table seeded with `seed`. */
std::uint64_t
rowBase(std::uint64_t seed, std::uint64_t row)
{
    return mix(seed ^ (row * 0x9E3779B97F4A7C15ull));
}

/**
 * Value of lane d of the row whose hash base is `base`: a float in
 * [-0.05, 0.05) (DLRM-style init). The one definition of a table's
 * values, materialized or virtual.
 */
float
laneValue(std::uint64_t base, std::uint32_t d)
{
    const double u = static_cast<double>(mix(base + d) >> 11) * 0x1.0p-53;
    return static_cast<float>((u - 0.5) * 0.1);
}

/** Write flat elements [begin, end) of a dim-wide table to out[0 ..
 *  end - begin); a range may start and end inside a row. */
void
fillElements(float *out, std::uint64_t seed, std::uint32_t dim,
             std::uint64_t begin, std::uint64_t end)
{
    std::uint64_t row = begin / dim;
    std::uint32_t d = static_cast<std::uint32_t>(begin % dim);
    for (std::uint64_t e = begin; e < end; ++row, d = 0) {
        const std::uint64_t base = rowBase(seed, row);
        for (; d < dim && e < end; ++d, ++e)
            *out++ = laneValue(base, d);
    }
}

} // namespace

EmbeddingTable::EmbeddingTable(std::uint64_t num_rows, std::uint32_t dim,
                               Storage storage, std::uint64_t seed)
    : numRows_(num_rows), dim_(dim), storage_(storage), seed_(seed)
{
    ERC_CHECK(num_rows > 0, "table needs at least one row");
    ERC_CHECK(dim > 0, "embedding dimension must be positive");
    if (storage_ == Storage::Materialized) {
        // Divided, not multiplied: a product could wrap past the limit.
        ERC_CHECK(num_rows <= (1ull << 31) / dim,
                  "materialized table too large ("
                      << num_rows << " x " << dim
                      << " floats); use Storage::Virtual");
        materialize();
    }
}

void
EmbeddingTable::materialize()
{
    const std::uint64_t elems = numRows_ * dim_;
    const std::size_t bytes = elems * sizeof(float);
    const bool huge = bytes >= kHugePageBytes;
    const std::align_val_t align{huge ? kHugePageBytes : kCacheLineBytes};
    // Huge tables round up to whole huge pages so the advice covers
    // the tail page as well.
    const std::size_t alloc_bytes =
        huge ? (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes
             : bytes;
    data_ = {static_cast<float *>(::operator new(alloc_bytes, align)),
             detail::AlignedDelete{align}};
    // Advice only: without THP the pages stay 4 KiB and the values
    // are the same, so a failure is deliberately ignored.
    if (huge)
        (void)::madvise(data_.get(), alloc_bytes, MADV_HUGEPAGE);

    const std::uint64_t chunk_elems = kFillChunkBytes / sizeof(float);
    const std::uint64_t chunks = (elems + chunk_elems - 1) / chunk_elems;
    const auto fill_chunk = [this, elems, chunk_elems](std::uint64_t c) {
        fillElements(data_.get() + c * chunk_elems, seed_, dim_,
                     c * chunk_elems, std::min(elems, (c + 1) * chunk_elems));
    };
    if (chunks == 1) {
        fill_chunk(0);
        return;
    }
    // Each value depends only on its (row, lane), so the chunks fill
    // in any order on any number of threads with identical contents.
    runtime::ThreadPool pool(
        std::min<std::uint64_t>(runtime::ThreadPool::hardwareThreads(),
                                chunks));
    std::vector<std::future<void>> filled;
    filled.reserve(chunks);
    for (std::uint64_t c = 0; c < chunks; ++c)
        filled.push_back(pool.submit([&fill_chunk, c] { fill_chunk(c); }));
    for (auto &f : filled)
        f.get();
}

void
EmbeddingTable::synthesizeRow(std::uint64_t row, float *out) const
{
    fillElements(out, seed_, dim_, row * dim_, (row + 1) * dim_);
}

void
EmbeddingTable::readRow(std::uint64_t row, float *out) const
{
    ERC_CHECK(row < numRows_, "row " << row << " out of range");
    if (storage_ == Storage::Materialized) {
        std::memcpy(out, &data_[row * dim_], dim_ * sizeof(float));
    } else {
        synthesizeRow(row, out);
    }
}

float
EmbeddingTable::at(std::uint64_t row, std::uint32_t d) const
{
    ERC_CHECK(row < numRows_ && d < dim_, "element out of range");
    if (storage_ == Storage::Materialized)
        return data_[row * dim_ + d];
    return laneValue(rowBase(seed_, row), d);
}

void
EmbeddingTable::addRowTo(std::uint64_t row, float *acc) const
{
    ERC_CHECK(row < numRows_, "row " << row << " out of range");
    if (storage_ == Storage::Materialized) {
        const float *src = &data_[row * dim_];
        for (std::uint32_t d = 0; d < dim_; ++d)
            acc[d] += src[d];
        return;
    }
    // Virtual rows accumulate straight out of the hash — the same
    // values synthesizeRow() produces, added in the same lane order,
    // so results stay bit-identical to the buffered path.
    const std::uint64_t base = rowBase(seed_, row);
    for (std::uint32_t d = 0; d < dim_; ++d)
        acc[d] += laneValue(base, d);
}

kernels::TableSlice
EmbeddingTable::wholeSlice() const
{
    ERC_CHECK(storage_ == Storage::Materialized,
              "virtual tables have no materialized rows to view");
    kernels::TableSlice slice;
    slice.rows = data_.get();
    slice.dim = dim_;
    slice.rankCount = numRows_;
    slice.storageRows = numRows_;
    return slice;
}

std::size_t
EmbeddingTable::gatherPool(const kernels::GatherRequest &req, float *out,
                           const kernels::KernelBackend &backend) const
{
    ERC_CHECK(req.batch > 0, "gatherPool needs at least one batch item");
    const AllocGate gate(gatherRegion());
    if (storage_ == Storage::Materialized)
        return backend.gatherSumPool(wholeSlice(), req, out);
    // Virtual rows are synthesized from the hash — there are no
    // materialized bytes for a backend to vectorize over, so pooling
    // accumulates scalar-side in the same lane order as readRow().
    for (std::size_t b = 0; b < req.batch; ++b) {
        const auto [begin, end] = kernels::detail::bagBounds(req, b);
        float *acc = out + b * dim_;
        std::memset(acc, 0, dim_ * sizeof(float));
        for (std::size_t i = begin; i < end; ++i)
            addRowTo(req.indices[i], acc);
    }
    return req.numIndices;
}

} // namespace erec::embedding
