/**
 * @file
 * Tests for embedding table storage and the gather+pool kernel, in both
 * materialized and virtual storage modes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/embedding/embedding_table.h"

namespace erec::embedding {
namespace {

TEST(EmbeddingTableTest, ByteAccounting)
{
    EmbeddingTable t(1000, 32);
    EXPECT_EQ(t.rowBytes(), 128u);
    EXPECT_EQ(t.totalBytes(), 128000u);
    EmbeddingTable v(20'000'000, 32, Storage::Virtual);
    EXPECT_EQ(v.totalBytes(), 20'000'000ull * 128);
}

TEST(EmbeddingTableTest, GatherPoolSumsRows)
{
    EmbeddingTable t(16, 4);
    // Batch of 2: item 0 gathers rows {1, 3}, item 1 gathers {2}.
    std::vector<std::uint32_t> indices = {1, 3, 2};
    std::vector<std::uint32_t> offsets = {0, 2};
    std::vector<float> out(2 * 4);
    EXPECT_EQ(t.gatherPool({indices, offsets}, out.data()), 3u);
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(out[d], t.at(1, d) + t.at(3, d));
        EXPECT_FLOAT_EQ(out[4 + d], t.at(2, d));
    }
}

TEST(EmbeddingTableTest, EmptyItemPoolsToZero)
{
    EmbeddingTable t(8, 4);
    // Item 0 has no gathers, item 1 gathers row 5.
    std::vector<std::uint32_t> indices = {5};
    std::vector<std::uint32_t> offsets = {0, 0};
    std::vector<float> out(2 * 4, 99.0f);
    t.gatherPool({indices, offsets}, out.data());
    for (std::uint32_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(out[d], 0.0f);
        EXPECT_FLOAT_EQ(out[4 + d], t.at(5, d));
    }
}

TEST(EmbeddingTableTest, VirtualRowsAreDeterministic)
{
    EmbeddingTable a(1000, 8, Storage::Virtual, 7);
    EmbeddingTable b(1000, 8, Storage::Virtual, 7);
    std::vector<float> ra(8), rb(8);
    a.readRow(123, ra.data());
    b.readRow(123, rb.data());
    EXPECT_EQ(ra, rb);
    // Different seed -> different values.
    EmbeddingTable c(1000, 8, Storage::Virtual, 8);
    std::vector<float> rc(8);
    c.readRow(123, rc.data());
    EXPECT_NE(ra, rc);
}

TEST(EmbeddingTableTest, VirtualGatherMatchesReadRow)
{
    EmbeddingTable t(100, 4, Storage::Virtual);
    std::vector<std::uint32_t> indices = {10, 20};
    std::vector<std::uint32_t> offsets = {0};
    std::vector<float> out(4);
    t.gatherPool({indices, offsets}, out.data());
    std::vector<float> r10(4), r20(4);
    t.readRow(10, r10.data());
    t.readRow(20, r20.data());
    for (int d = 0; d < 4; ++d)
        EXPECT_FLOAT_EQ(out[d], r10[d] + r20[d]);
}

TEST(EmbeddingTableTest, MaterializedRowsEqualVirtualRowsBitForBit)
{
    // 21M floats = 2.5 fill chunks of 32 MiB: the parallel first-touch
    // path runs, the last chunk is ragged, and with dim 7 every chunk
    // boundary falls inside a row. Virtual rows are hashed on demand by
    // one thread, so equality also shows the fill does not depend on
    // the thread count.
    constexpr std::uint64_t kRows = 3'000'001;
    constexpr std::uint32_t kDim = 7;
    const EmbeddingTable m(kRows, kDim, Storage::Materialized, 11);
    const EmbeddingTable v(kRows, kDim, Storage::Virtual, 11);
    std::vector<float> rm(kDim), rv(kDim);
    std::uint64_t mismatched_rows = 0;
    for (std::uint64_t r = 0; r < kRows; ++r) {
        m.readRow(r, rm.data());
        v.readRow(r, rv.data());
        if (std::memcmp(rm.data(), rv.data(), kDim * sizeof(float)) != 0)
            ++mismatched_rows;
    }
    EXPECT_EQ(mismatched_rows, 0u);
    // at() on both, at the first row, the row the first chunk boundary
    // (8M floats) splits, and the last row.
    const std::uint64_t split_row = (std::uint64_t{8} << 20) / kDim;
    for (const std::uint64_t r : {std::uint64_t{0}, split_row, kRows - 1}) {
        for (std::uint32_t d = 0; d < kDim; ++d) {
            const float a = m.at(r, d);
            const float b = v.at(r, d);
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
                << "row " << r << " lane " << d;
        }
    }
}

TEST(EmbeddingTableTest, HugeTablesAreHugePageAligned)
{
    constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
    // 16384 x 32 floats is exactly 2 MiB, the huge-page threshold.
    const EmbeddingTable huge(16384, 32);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(huge.wholeSlice().rows) %
                  kHugePage,
              0u);
    const EmbeddingTable small(1024, 32);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.wholeSlice().rows) %
                  64,
              0u);
}

TEST(EmbeddingTableTest, ValuesInInitRange)
{
    EmbeddingTable t(100, 16);
    for (std::uint64_t r = 0; r < 100; ++r) {
        for (std::uint32_t d = 0; d < 16; ++d) {
            EXPECT_GE(t.at(r, d), -0.05f);
            EXPECT_LE(t.at(r, d), 0.05f);
        }
    }
}

TEST(EmbeddingTableTest, RejectsOutOfRangeAccess)
{
    EmbeddingTable t(10, 4);
    std::vector<float> row(4);
    EXPECT_THROW(t.readRow(10, row.data()), ConfigError);
    std::vector<std::uint32_t> indices = {10};
    std::vector<std::uint32_t> offsets = {0};
    std::vector<float> out(4);
    EXPECT_THROW(t.gatherPool({indices, offsets}, out.data()),
                 ConfigError);
}

TEST(EmbeddingTableTest, RejectsOversizedMaterialization)
{
    EXPECT_THROW(EmbeddingTable(100'000'000, 64),
                 ConfigError);
    // 2^40 rows x 2^24 lanes is 2^64 floats, which wraps to 0 in 64 bits.
    EXPECT_THROW(EmbeddingTable(1ull << 40, 1u << 24), ConfigError);
}

TEST(EmbeddingTableTest, GatherTraffic)
{
    EmbeddingTable t(10, 32);
    EXPECT_EQ(t.gatherTrafficBytes(100), 100u * 128);
}

} // namespace
} // namespace erec::embedding
