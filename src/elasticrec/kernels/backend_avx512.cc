/**
 * @file
 * AVX-512 backend: 16-lane gather-pool and GEMM, same blocking scheme
 * as the AVX2 backend at twice the lane width (column passes of up to
 * 128 floats in up to eight ZMM accumulators, one 16-float block per
 * cache line; GEMM register tiles of 64 columns). Compiled with
 * -mavx512f and -ffp-contract=off; see backend_avx2.cc for the
 * bit-identity reasoning, which is unchanged: lanes map 1:1 onto
 * output dimensions, so per-lane accumulation order matches the
 * scalar reference exactly.
 */

#include "elasticrec/kernels/backend_impl.h"

#ifdef ERC_KERNELS_HAVE_AVX512

#include <immintrin.h>

#include <cstring>

#include "elasticrec/common/error.h"

namespace erec::kernels {
namespace {

/** Rows gathered ahead of the current one to hide DRAM latency. */
constexpr std::size_t kPrefetchDistance = 8;

/**
 * Accumulate columns [c0, c0 + 16*kBlocks) of one bag's rows
 * [begin, end) into `acc`. Every cache line of those columns is
 * prefetched for the row kPrefetchDistance positions ahead in the
 * whole index array, so short bags prefetch into the next bag.
 */
template <int kBlocks>
void
poolColumns(const TableSlice &table, const GatherRequest &req,
            std::size_t begin, std::size_t end, std::uint32_t c0,
            float *acc)
{
    __m512 sum[kBlocks];
    for (int v = 0; v < kBlocks; ++v)
        sum[v] = _mm512_setzero_ps();
    const std::uint32_t dim = table.dim;
    for (std::size_t i = begin; i < end; ++i) {
        if (i + kPrefetchDistance < req.numIndices) {
            const float *ahead = detail::prefetchRow(
                table, req.indices[i + kPrefetchDistance]);
            if (ahead != nullptr)
                for (int v = 0; v < kBlocks; ++v)
                    _mm_prefetch(reinterpret_cast<const char *>(
                                     ahead + c0 + 16 * v),
                                 _MM_HINT_T0);
        }
        const float *src =
            table.rows + detail::resolveRow(table, req.indices[i]) * dim + c0;
        for (int v = 0; v < kBlocks; ++v)
            sum[v] = _mm512_add_ps(sum[v], _mm512_loadu_ps(src + 16 * v));
    }
    for (int v = 0; v < kBlocks; ++v)
        _mm512_storeu_ps(acc + c0 + 16 * v, sum[v]);
}

/**
 * Pool the 16-float blocks left after the full 128-float passes in one
 * pass over the bag. Returns the first column not covered.
 */
std::uint32_t
poolRemainingBlocks(const TableSlice &table, const GatherRequest &req,
                    std::size_t begin, std::size_t end, std::uint32_t c0,
                    float *acc)
{
    const std::uint32_t blocks = (table.dim - c0) / 16;
    switch (blocks) {
    case 1: poolColumns<1>(table, req, begin, end, c0, acc); break;
    case 2: poolColumns<2>(table, req, begin, end, c0, acc); break;
    case 3: poolColumns<3>(table, req, begin, end, c0, acc); break;
    case 4: poolColumns<4>(table, req, begin, end, c0, acc); break;
    case 5: poolColumns<5>(table, req, begin, end, c0, acc); break;
    case 6: poolColumns<6>(table, req, begin, end, c0, acc); break;
    case 7: poolColumns<7>(table, req, begin, end, c0, acc); break;
    default: break;
    }
    return c0 + 16 * blocks;
}

/** One register tile of kBlocks*16 output columns starting at o0. */
template <int kBlocks>
void
gemmTile(const float *x, const float *w, const float *bias, std::size_t k,
         std::size_t n, std::size_t o0, bool relu, float *y)
{
    __m512 acc[kBlocks];
    for (int v = 0; v < kBlocks; ++v)
        acc[v] = _mm512_setzero_ps();
    for (std::size_t i = 0; i < k; ++i) {
        const __m512 xi = _mm512_set1_ps(x[i]);
        const float *wrow = w + i * n + o0;
        for (int v = 0; v < kBlocks; ++v)
            acc[v] = _mm512_add_ps(
                acc[v], _mm512_mul_ps(xi, _mm512_loadu_ps(wrow + 16 * v)));
    }
    const __m512 zero = _mm512_setzero_ps();
    for (int v = 0; v < kBlocks; ++v) {
        __m512 r = _mm512_add_ps(acc[v], _mm512_loadu_ps(bias + o0 + 16 * v));
        if (relu)
            r = _mm512_max_ps(r, zero);
        _mm512_storeu_ps(y + o0 + 16 * v, r);
    }
}

class Avx512Backend final : public KernelBackend
{
  public:
    const char *
    name() const override
    {
        return "avx512";
    }

    std::size_t
    gatherSumPool(const TableSlice &table, const GatherRequest &req,
                  float *out) const override
    {
        ERC_CHECK(req.batch > 0, "gather needs at least one batch item");
        const std::uint32_t dim = table.dim;
        for (std::size_t b = 0; b < req.batch; ++b) {
            const auto [begin, end] = detail::bagBounds(req, b);
            float *acc = out + b * static_cast<std::size_t>(dim);
            std::uint32_t c0 = 0;
            for (; c0 + 128 <= dim; c0 += 128)
                poolColumns<8>(table, req, begin, end, c0, acc);
            c0 = poolRemainingBlocks(table, req, begin, end, c0, acc);
            if (c0 < dim) {
                std::memset(acc + c0, 0, (dim - c0) * sizeof(float));
                for (std::size_t i = begin; i < end; ++i) {
                    const float *src =
                        table.rows +
                        detail::resolveRow(table, req.indices[i]) * dim;
                    for (std::uint32_t d = c0; d < dim; ++d)
                        acc[d] += src[d];
                }
            }
        }
        return req.numIndices;
    }

    void
    gemmBiasAct(const float *a, const float *w, const float *bias,
                std::size_t m, std::size_t k, std::size_t n, bool relu,
                float *c) const override
    {
        for (std::size_t mi = 0; mi < m; ++mi) {
            const float *x = a + mi * k;
            float *y = c + mi * n;
            std::size_t o0 = 0;
            for (; o0 + 64 <= n; o0 += 64)
                gemmTile<4>(x, w, bias, k, n, o0, relu, y);
            for (; o0 + 16 <= n; o0 += 16)
                gemmTile<1>(x, w, bias, k, n, o0, relu, y);
            for (; o0 < n; ++o0) {
                float acc = 0.0f;
                for (std::size_t i = 0; i < k; ++i)
                    acc += x[i] * w[i * n + o0];
                const float v = acc + bias[o0];
                y[o0] = relu ? (v > 0.0f ? v : 0.0f) : v;
            }
        }
    }
};

} // namespace

namespace detail {

const KernelBackend &
avx512BackendImpl()
{
    static const Avx512Backend backend;
    return backend;
}

} // namespace detail
} // namespace erec::kernels

#endif // ERC_KERNELS_HAVE_AVX512
