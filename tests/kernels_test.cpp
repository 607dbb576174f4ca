/**
 * @file
 * Tests for the kernel-backend registry (src/elasticrec/kernels): the
 * cross-backend bit-identity contract — every SIMD backend must match
 * the scalar reference byte for byte, including ragged bags, empty
 * bags, duplicate indices, remapped (hotness-sorted) slices and
 * dimensions that are not a multiple of any vector width — plus the
 * runtime dispatch rules (env selection, graceful ISA fallback,
 * rejection of unknown names).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/common/rng.h"
#include "elasticrec/kernels/kernel_backend.h"
#include "elasticrec/kernels/registry.h"

namespace erec::kernels {
namespace {

/** Random row-major table storage in the embedding init range. */
std::vector<float>
randomRows(std::uint64_t rows, std::uint32_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> data(rows * dim);
    for (auto &v : data)
        v = static_cast<float>(rng.uniform(-0.05, 0.05));
    return data;
}

/** Ragged per-item bags: sizes cycle 0, 1, 3, 17, ... (empty bags and
 *  duplicate indices included), indices random within `rankCount`. */
struct RequestStorage
{
    std::vector<std::uint32_t> indices;
    std::vector<std::uint32_t> offsets;

    RequestStorage(std::size_t batch, std::uint64_t rank_count,
                   std::uint64_t seed)
    {
        Rng rng(seed);
        const std::size_t bag_sizes[] = {0, 1, 3, 17, 64, 5};
        for (std::size_t b = 0; b < batch; ++b) {
            offsets.push_back(
                static_cast<std::uint32_t>(indices.size()));
            const std::size_t bag = bag_sizes[b % 6];
            for (std::size_t g = 0; g < bag; ++g)
                indices.push_back(static_cast<std::uint32_t>(
                    rng.uniformInt(rank_count)));
            if (bag >= 2) // Force a duplicate into every real bag.
                indices.back() = indices[indices.size() - 2];
        }
    }

    GatherRequest view() const { return {indices, offsets}; }
};

bool
bytesEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

TEST(KernelBackendTest, GatherBitIdenticalAcrossBackends)
{
    // Dims cover ugly tails (1, 7, 17, 100 — not a multiple of 8 or
    // 16 lanes), every AVX-512 16-float block count 1..7 left after
    // the 128-float passes (16..112, and 144 / 240 behind a full
    // pass), every AVX2 8-float block count 1..7 left after the
    // 64-float passes (8..56, 80, 112), and whole passes (128, 256).
    for (const std::uint32_t dim :
         {1u, 7u, 8u, 16u, 17u, 24u, 32u, 40u, 48u, 56u, 64u, 80u, 100u,
          112u, 128u, 144u, 240u, 256u}) {
        const std::uint64_t rows = 512;
        const auto data = randomRows(rows, dim, /*seed=*/dim);
        TableSlice slice;
        slice.rows = data.data();
        slice.dim = dim;
        slice.rankCount = rows;
        slice.storageRows = rows;

        const RequestStorage req(/*batch=*/13, rows, /*seed=*/99);
        std::vector<float> expect(13 * dim, -1.0f);
        const std::size_t gathered =
            scalarBackend().gatherSumPool(slice, req.view(),
                                          expect.data());
        EXPECT_EQ(gathered, req.indices.size());

        for (const KernelBackend *backend : availableBackends()) {
            std::vector<float> got(13 * dim, 1.0f);
            EXPECT_EQ(backend->gatherSumPool(slice, req.view(),
                                             got.data()),
                      req.indices.size());
            EXPECT_TRUE(bytesEqual(got, expect))
                << backend->name() << " diverges from scalar at dim "
                << dim;
        }
    }
}

TEST(KernelBackendTest, GatherBitIdenticalOnRemappedShardSlice)
{
    // A hotness-sorted shard: ranks [100, 300) of a 512-row table,
    // remapped through a reversing permutation.
    const std::uint32_t dim = 96;
    const std::uint64_t rows = 512;
    const auto data = randomRows(rows, dim, 4);
    std::vector<std::uint32_t> remap(rows);
    for (std::uint64_t r = 0; r < rows; ++r)
        remap[r] = static_cast<std::uint32_t>(rows - 1 - r);

    TableSlice slice;
    slice.rows = data.data();
    slice.dim = dim;
    slice.rankBase = 100;
    slice.rankCount = 200;
    slice.remap = remap.data();
    slice.storageRows = rows;

    const RequestStorage req(/*batch=*/7, /*rank_count=*/200,
                             /*seed=*/5);
    std::vector<float> expect(7 * dim);
    scalarBackend().gatherSumPool(slice, req.view(), expect.data());
    // Spot-check the remap is actually exercised: item 1 gathers one
    // rank i, whose storage row must be remap[100 + i].
    const std::uint32_t i1 = req.indices[req.offsets[1]];
    for (std::uint32_t d = 0; d < dim; ++d)
        ASSERT_FLOAT_EQ(expect[dim + d],
                        data[std::size_t(remap[100 + i1]) * dim + d]);

    for (const KernelBackend *backend : availableBackends()) {
        std::vector<float> got(7 * dim, 1.0f);
        backend->gatherSumPool(slice, req.view(), got.data());
        EXPECT_TRUE(bytesEqual(got, expect)) << backend->name();
    }
}

TEST(KernelBackendTest, GatherRejectsBadRequests)
{
    const std::uint32_t dim = 32; // Wide enough for every SIMD pass.
    const auto data = randomRows(16, dim, 2);
    TableSlice slice;
    slice.rows = data.data();
    slice.dim = dim;
    slice.rankCount = 16;
    slice.storageRows = 16;
    std::vector<float> out(4 * dim);

    for (const KernelBackend *backend : availableBackends()) {
        // Empty batch.
        EXPECT_THROW(backend->gatherSumPool(slice, GatherRequest{},
                                            out.data()),
                     ConfigError)
            << backend->name();
        // Rank escaping the slice.
        const std::vector<std::uint32_t> bad_idx = {16};
        const std::vector<std::uint32_t> off = {0};
        EXPECT_THROW(backend->gatherSumPool(slice, {bad_idx, off},
                                            out.data()),
                     ConfigError)
            << backend->name();
        // Non-monotone offsets.
        const std::vector<std::uint32_t> idx = {1, 2};
        const std::vector<std::uint32_t> bad_off = {2, 0};
        EXPECT_THROW(backend->gatherSumPool(slice, {idx, bad_off},
                                            out.data()),
                     ConfigError)
            << backend->name();
        // Bags of three, shorter than the prefetch distance, with the
        // escaping rank in the last bag: earlier bags prefetch it
        // across bag boundaries, and only the real access raises.
        const std::vector<std::uint32_t> short_idx = {
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 11};
        const std::vector<std::uint32_t> short_off = {0, 3, 6, 9};
        EXPECT_THROW(backend->gatherSumPool(slice, {short_idx, short_off},
                                            out.data()),
                     ConfigError)
            << backend->name();
    }
}

TEST(KernelBackendTest, GemmBitIdenticalAcrossBackends)
{
    // Output widths cover tile multiples and tails; both activations.
    for (const std::size_t n : {1ul, 5ul, 33ul, 100ul, 128ul}) {
        const std::size_t m = 9, k = 37;
        Rng rng(n);
        std::vector<float> a(m * k), w(k * n), bias(n);
        for (auto &v : a)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto &v : w)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto &v : bias)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));

        for (const bool relu : {false, true}) {
            std::vector<float> expect(m * n, -9.0f);
            scalarBackend().gemmBiasAct(a.data(), w.data(),
                                        bias.data(), m, k, n, relu,
                                        expect.data());
            if (relu) {
                for (const float v : expect)
                    ASSERT_GE(v, 0.0f);
            }
            for (const KernelBackend *backend : availableBackends()) {
                std::vector<float> got(m * n, 9.0f);
                backend->gemmBiasAct(a.data(), w.data(), bias.data(),
                                     m, k, n, relu, got.data());
                EXPECT_TRUE(bytesEqual(got, expect))
                    << backend->name() << " diverges at n=" << n
                    << " relu=" << relu;
            }
        }
    }
}

TEST(KernelRegistryTest, ScalarAlwaysRegisteredFirst)
{
    const auto &backends = availableBackends();
    ASSERT_FALSE(backends.empty());
    EXPECT_STREQ(backends.front()->name(), "scalar");
    EXPECT_EQ(findBackend("scalar"), backends.front());
    EXPECT_EQ(findBackend("riscv-v"), nullptr);
    // bestBackend is the widest (last) entry, and what "" resolves to
    // when no env override is set in the test environment.
    EXPECT_STREQ(bestBackend().name(), backends.back()->name());
}

TEST(KernelRegistryTest, ResolveNamePicksEnvThenWidest)
{
    const std::vector<std::string> usable = {"scalar", "avx2"};
    // No request, no env: widest wins.
    EXPECT_EQ(detail::resolveName("", nullptr, usable), "avx2");
    // Env selects when no explicit request.
    EXPECT_EQ(detail::resolveName("", "scalar", usable), "scalar");
    // An explicit request (StackOptions) beats the env.
    EXPECT_EQ(detail::resolveName("scalar", "avx2", usable), "scalar");
    EXPECT_EQ(detail::resolveName("avx2", nullptr, usable), "avx2");
}

TEST(KernelRegistryTest, KnownButUnsupportedNameDegradesGracefully)
{
    // An operator pinning avx512 fleet-wide must not crash hosts
    // without the ISA: known names fall back to the widest usable.
    const std::vector<std::string> usable = {"scalar", "avx2"};
    EXPECT_EQ(detail::resolveName("avx512", nullptr, usable), "avx2");
    EXPECT_EQ(detail::resolveName("", "avx512", usable), "avx2");
    EXPECT_EQ(detail::resolveName("avx2", nullptr, {"scalar"}),
              "scalar");
}

TEST(KernelRegistryTest, UnknownNameIsConfigError)
{
    const std::vector<std::string> usable = {"scalar"};
    EXPECT_THROW(detail::resolveName("turbo9000", nullptr, usable),
                 ConfigError);
    EXPECT_THROW(detail::resolveName("", "turbo9000", usable),
                 ConfigError);
    EXPECT_THROW(detail::resolveName("", nullptr, {}), ConfigError);
    // resolveBackend wires the same rejection through the registry.
    EXPECT_THROW(resolveBackend("turbo9000"), ConfigError);
}

} // namespace
} // namespace erec::kernels
