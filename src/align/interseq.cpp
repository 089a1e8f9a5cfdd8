#include "align/interseq.hpp"

#include <algorithm>

#include "align/interseq_kernels.hpp"
#include "simd/simd.hpp"
#include "util/error.hpp"

namespace swh::align {

bool interseq_supported(const ScoreMatrix& matrix) {
    // Residue codes plus the padding sentinel must fit the 32-entry
    // lookup table, and the biased score range must fit u8 (the same
    // bound build_profile8 enforces for the striped kernel).
    return matrix.alphabet().size() <= InterseqProfile::kPadCode &&
           matrix.max_score() + matrix.bias() <= 255;
}

InterseqProfile build_interseq_profile(std::span<const Code> query,
                                       const ScoreMatrix& matrix) {
    SWH_REQUIRE(interseq_supported(matrix),
                "matrix does not fit the inter-sequence kernels");
    InterseqProfile p;
    p.query_len = query.size();
    p.bias = matrix.bias();
    p.symbols = matrix.alphabet().size();
    // Over-allocate one row and slide the base so every 32-byte LUT row
    // is naturally aligned (rows are reloaded once per cell).
    p.data.assign((query.size() + 1) * InterseqProfile::kStride, 0);
    const auto addr = reinterpret_cast<std::uintptr_t>(p.data.data());
    p.align_pad = (InterseqProfile::kStride - addr % InterseqProfile::kStride) %
                  InterseqProfile::kStride;
    for (std::size_t i = 0; i < query.size(); ++i) {
        std::uint8_t* row = p.data.data() + p.align_pad +
                            i * InterseqProfile::kStride;
        for (Code a = 0; a < p.symbols; ++a) {
            const Score raw = matrix.at(query[i], a);
            p.max_raw = std::max(p.max_raw, raw);
            row[a] = static_cast<std::uint8_t>(raw + p.bias);
        }
        // Slots past the alphabet (including kPadCode) keep 0 = the
        // most-penalising biased score, so padded lanes only decay.
    }
    return p;
}

std::uint64_t sw_interseq_u8(const InterseqProfile& profile, const Code* cols,
                             std::size_t columns, GapPenalty gap,
                             simd::IsaLevel isa, ScanScratch& scratch,
                             std::uint8_t* best,
                             std::span<const SubjectStart> starts) {
    switch (isa) {
        case simd::IsaLevel::Scalar:
            return detail::interseq_tiles_u8<simd::U8x16s>(
                profile, cols, columns, gap, scratch, best, starts);
#if defined(__SSE2__)
        case simd::IsaLevel::SSE2:
            return detail::interseq_tiles_u8<simd::U8x16>(
                profile, cols, columns, gap, scratch, best, starts);
#endif
#if defined(__AVX2__)
        case simd::IsaLevel::AVX2:
            return detail::interseq_tiles_u8<simd::U8x32>(
                profile, cols, columns, gap, scratch, best, starts);
#endif
#if defined(__AVX512BW__)
        case simd::IsaLevel::AVX512:
            return detail::interseq_tiles_u8<simd::U8x64>(
                profile, cols, columns, gap, scratch, best, starts);
#endif
        default:
            break;
    }
    SWH_REQUIRE(false, "ISA level not compiled in");
    return 0;
}

namespace {

/// The i16 kernel for backend V, with the hi i16 half-vectors compiled
/// out when the occupancy hint says the caller packed lanes
/// [0, lanes_used) of at most half the cohort.
template <class V>
std::uint64_t interseq_i16_for(const InterseqProfile& profile,
                               const Code* cols, std::size_t columns,
                               GapPenalty gap, ScanScratch& scratch,
                               std::int16_t* lane_best,
                               std::size_t lanes_used) {
    return lanes_used != 0 &&
                   lanes_used * 2 <= static_cast<std::size_t>(V::kLanes)
               ? detail::interseq_tiles_i16<V, true>(profile, cols, columns,
                                                     gap, scratch, lane_best)
               : detail::interseq_tiles_i16<V>(profile, cols, columns, gap,
                                               scratch, lane_best);
}

}  // namespace

std::uint64_t sw_interseq_i16(const InterseqProfile& profile, const Code* cols,
                              std::size_t columns, GapPenalty gap,
                              simd::IsaLevel isa, ScanScratch& scratch,
                              std::int16_t* lane_best,
                              std::size_t lanes_used) {
    switch (isa) {
        case simd::IsaLevel::Scalar:
            return interseq_i16_for<simd::U8x16s>(
                profile, cols, columns, gap, scratch, lane_best, lanes_used);
#if defined(__SSE2__)
        case simd::IsaLevel::SSE2:
            return interseq_i16_for<simd::U8x16>(
                profile, cols, columns, gap, scratch, lane_best, lanes_used);
#endif
#if defined(__AVX2__)
        case simd::IsaLevel::AVX2:
            return interseq_i16_for<simd::U8x32>(
                profile, cols, columns, gap, scratch, lane_best, lanes_used);
#endif
#if defined(__AVX512BW__)
        case simd::IsaLevel::AVX512:
            return interseq_i16_for<simd::U8x64>(
                profile, cols, columns, gap, scratch, lane_best, lanes_used);
#endif
        default:
            break;
    }
    SWH_REQUIRE(false, "ISA level not compiled in");
    return 0;
}

}  // namespace swh::align
