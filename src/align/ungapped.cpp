#include "align/ungapped.hpp"

#include <algorithm>
#include <vector>

#include "align/ungapped_kernels.hpp"
#include "simd/simd.hpp"
#include "util/error.hpp"

namespace swh::align {

Score sw_ungapped_scalar(std::span<const Code> a, std::span<const Code> b,
                         const ScoreMatrix& matrix, GapPenalty gap) {
    Score best = 0;
    if (a.empty() || b.empty()) return best;
    // Two rolling rows over a, swept once per residue of b (matching
    // the kernels' column order): `row` carries the previous column's
    // T, `above[i]` the best T over rows < i of all columns processed
    // so far (A(i, j) in ungapped.hpp) — the only legal restart sources
    // for row i.
    std::vector<Score> row(a.size(), 0);
    std::vector<Score> above(a.size(), 0);
    for (const Code cb : b) {
        Score diag = 0;    // T(i-1, j-1), 0 boundary at i = 0
        Score prefix = 0;  // max T over rows < i of THIS column
        for (std::size_t i = 0; i < a.size(); ++i) {
            const Score aOld = above[i];
            const Score h = std::max<Score>(
                0, std::max(diag, aOld - gap.open) + matrix.at(a[i], cb));
            diag = row[i];
            row[i] = h;
            above[i] = std::max(aOld, prefix);
            prefix = std::max(prefix, h);
            best = std::max(best, h);
        }
    }
    return best;
}

std::uint64_t sw_ungapped_interseq_u8(const InterseqProfile& profile,
                                      const Code* cols, std::size_t columns,
                                      GapPenalty gap, simd::IsaLevel isa,
                                      ScanScratch& scratch,
                                      std::uint8_t* lane_best,
                                      std::size_t row_begin,
                                      std::size_t row_end) {
    switch (isa) {
        case simd::IsaLevel::Scalar:
            return detail::ungapped_interseq_u8<simd::U8x16s>(
                profile, cols, columns, gap, scratch, lane_best, row_begin,
                row_end);
#if defined(__SSE2__)
        case simd::IsaLevel::SSE2:
            return detail::ungapped_interseq_u8<simd::U8x16>(
                profile, cols, columns, gap, scratch, lane_best, row_begin,
                row_end);
#endif
#if defined(__AVX2__)
        case simd::IsaLevel::AVX2:
            return detail::ungapped_interseq_u8<simd::U8x32>(
                profile, cols, columns, gap, scratch, lane_best, row_begin,
                row_end);
#endif
#if defined(__AVX512BW__)
        case simd::IsaLevel::AVX512:
            return detail::ungapped_interseq_u8<simd::U8x64>(
                profile, cols, columns, gap, scratch, lane_best, row_begin,
                row_end);
#endif
        default:
            break;
    }
    SWH_REQUIRE(false, "ISA level not compiled in");
    return 0;
}

}  // namespace swh::align
