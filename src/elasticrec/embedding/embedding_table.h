#pragma once

/**
 * @file
 * Embedding table storage and gather/pool kernels.
 *
 * Tables can be *materialized* (real float storage, used by unit tests,
 * examples and kernel profiling) or *virtual* (no backing storage; row
 * values are synthesized from a deterministic hash). Virtual mode lets
 * experiments reason about paper-scale tables (20M rows x 32 floats =
 * 2.4 GiB per table, 10-32 tables per model) on a small host while still
 * exercising the full gather/pool code path; byte accounting always
 * reflects the *logical* size.
 *
 * Both modes hold the same values: element (r, d) is a counter-based
 * hash of (seed, r, d), so a materialized table equals the virtual one
 * of the same seed bit for bit. Materialized storage is an uninitialised
 * aligned allocation; tables of 2 MiB or more are 2 MiB-aligned and
 * advised as transparent huge pages (random gathers then miss the TLB
 * far less), and a table larger than one 32 MiB fill chunk is filled
 * chunk by chunk on a transient runtime::ThreadPool.
 */

#include <cstdint>
#include <memory>
#include <new>
#include <string>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/units.h"
#include "elasticrec/kernels/kernel_backend.h"
#include "elasticrec/kernels/registry.h"

namespace erec::embedding {

enum class Storage
{
    Materialized, //!< Real float backing store.
    Virtual,      //!< Hash-synthesized values, zero resident memory.
};

namespace detail {

/** Frees a table's backing store at the alignment it was allocated at. */
struct AlignedDelete
{
    std::align_val_t align{};
    void operator()(float *p) const { ::operator delete(p, align); }
};

} // namespace detail

class EmbeddingTable
{
  public:
    /**
     * @param num_rows Number of embedding vectors.
     * @param dim Embedding vector dimension.
     * @param storage Materialized or Virtual (see file comment).
     * @param seed Hash salt of the row values (the same values in
     *             either storage mode).
     */
    EmbeddingTable(std::uint64_t num_rows, std::uint32_t dim,
                   Storage storage = Storage::Materialized,
                   std::uint64_t seed = 42);

    std::uint64_t numRows() const { return numRows_; }
    std::uint32_t dim() const { return dim_; }
    Storage storage() const { return storage_; }

    /** Bytes of one embedding vector. */
    Bytes rowBytes() const { return Bytes{dim_} * sizeof(float); }

    /** Logical size of the whole table in bytes. */
    Bytes totalBytes() const { return numRows_ * rowBytes(); }

    /**
     * Read one row into `out` (length dim()). Virtual tables synthesize
     * the row on the fly.
     */
    void readRow(std::uint64_t row, float *out) const;

    /** Element (row, d); convenience for tests. */
    float at(std::uint64_t row, std::uint32_t d) const;

    /**
     * Accumulate one row into `acc` (length dim()): acc[d] += row[d].
     * The pooling primitive of the gather kernels — works directly on
     * the accumulator, so virtual rows need no scratch buffer and the
     * steady gather path stays allocation-free.
     */
    ERC_HOT_PATH
    void addRowTo(std::uint64_t row, float *acc) const;

    /**
     * Gather-and-sum-pool (the paper's embedding layer operation). For
     * each batch item b of the request view, sums the addressed rows
     * into out[b*dim .. (b+1)*dim). Materialized tables execute on the
     * given kernel backend (default: the process-wide dispatched one);
     * virtual tables synthesize rows scalar-side either way.
     *
     * @param req Index/offset view (kernels::GatherRequest has a
     *            vector-pair constructor for callers holding vectors).
     * @param out Output buffer of size req.batch * dim().
     * @return Number of rows gathered.
     */
    ERC_HOT_PATH
    std::size_t gatherPool(const kernels::GatherRequest &req, float *out,
                           const kernels::KernelBackend &backend =
                               kernels::defaultBackend()) const;

    /**
     * Kernel-layer view of the whole materialized table (ranks = row
     * IDs, no remap). Raises ConfigError on a virtual table, which has
     * no materialized bytes to view.
     */
    kernels::TableSlice wholeSlice() const;

    /**
     * Bytes of memory traffic one gatherPool over `num_gathers` rows
     * causes (reads only; used by the hardware latency model).
     */
    Bytes gatherTrafficBytes(std::size_t num_gathers) const
    {
        return num_gathers * rowBytes();
    }

  private:
    void synthesizeRow(std::uint64_t row, float *out) const;

    /** Allocate the backing store and fill it on first touch. */
    void materialize();

    std::uint64_t numRows_;
    std::uint32_t dim_;
    Storage storage_;
    std::uint64_t seed_;
    std::unique_ptr<float[], detail::AlignedDelete> data_;
};

} // namespace erec::embedding
