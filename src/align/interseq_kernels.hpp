#pragma once

// Templated bodies of the inter-sequence Smith-Waterman kernels: one
// subject per SIMD lane at a time (the u8 kernel streams several
// through a lane, see interseq_tiles_u8), DP state arrays indexed by
// query position.
// Instantiated per SIMD backend in interseq.cpp; exposed in a header so
// tests can pin a specific backend.
//
// Orientation: the query is cut into balanced row tiles
// (interseq_tile_count; a query of up to kInterseqTileRows rows is one
// tile). Within a tile the outer loop walks subject columns (one
// interleaved residue vector per column), the inner loop walks the
// tile's query rows. E (gap along the subject) persists per query row;
// F (gap along the query) runs as a register down the column; the
// diagonal H comes from the previous column's row array. F needs no
// lazy correction pass — it is computed exactly in order, which is the
// structural advantage over the striped kernel on short queries.
//
// What crosses a tile boundary, per subject column j, is exactly the
// state the row loop hands from row r-1 to row r: H(r-1, j) (the
// carried bottom row, which is row r's diagonal for column j+1 and its
// vertical neighbour for column j) and the running F entering row r.
// Both live in ScanScratch::column_carry(); the u8 kernel writes them
// only on tiles that have a next one, so a one-tile query needs no
// carry. E does not cross tiles — it is per-row state, fully contained
// in a tile's own row array — so only the tile's DP rows compete for
// cache, however long the query.
//
// Arithmetic is cell-for-cell identical to the striped kernels (same
// saturating ops in the same order), so per-lane scores and overflow
// flags are bit-identical to what striped_u8/i16 produce for the same
// subject — the property the golden-equivalence suite pins down.

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

namespace swh::align::detail {

/// 8-bit inter-sequence kernel. V must model the u8 vector interface of
/// simd/vec_scalar.hpp including lookup32/widen/zero_lanes. Returns the
/// overflow lane mask; `best` receives per-subject maxima in the order
/// sw_interseq_u8 documents (per-lane maxima when `starts` is empty).
///
/// Lane refill at a subject-start column c: the ending lanes' running
/// max is merged into their subject's entry and cleared, and their
/// previous-column H and E (the h/e row arrays, plus the carried
/// diagonal on tiles after the first) are cleared before the column
/// runs — exactly the zero boundary a fresh call gives column 0. The
/// carried F and bottom-row H of column c itself already belong to the
/// new subject. A query of several tiles visits every start once per
/// tile, so each subject's entry max-merges its per-tile maxima.
template <class V>
SWH_HOT_PATH std::uint64_t interseq_tiles_u8(
    const InterseqProfile& p, const Code* cols, std::size_t columns,
    GapPenalty gap, ScanScratch& scratch, std::uint8_t* best,
    std::span<const SubjectStart> starts) {
    constexpr int W = V::kLanes;
    std::size_t subjects = W;
    for (const SubjectStart& s : starts) {
        subjects += static_cast<std::size_t>(std::popcount(s.lanes));
    }
    std::memset(best, 0, subjects);
    const std::size_t m = p.query_len;
    if (m == 0 || columns == 0) return 0;

    const auto open_ext =
        static_cast<std::uint8_t>(std::min<Score>(gap.open + gap.extend, 255));
    const auto ext =
        static_cast<std::uint8_t>(std::min<Score>(gap.extend, 255));
    const V vGapOE = V::splat(open_ext);
    const V vGapE = V::splat(ext);
    const V vBias = V::splat(static_cast<std::uint8_t>(p.bias));

    const std::size_t tiles = interseq_tile_count(m);
    const std::size_t rows = (m + tiles - 1) / tiles;
    const std::size_t bytes = std::min(rows, m) * sizeof(V);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    V* __restrict h = static_cast<V*>(bufs.h_load);
    V* __restrict e = static_cast<V*>(bufs.e);
    // Only a multi-tile query hands column state to a next tile.
    const ScanScratch::ColumnCarry carry =
        tiles > 1 ? scratch.column_carry(columns * sizeof(V))
                  : ScanScratch::ColumnCarry{nullptr, nullptr};
    V* __restrict crow = static_cast<V*>(carry.h);
    V* __restrict cf = static_cast<V*>(carry.f);
    V vMax = V::zero();
    alignas(64) std::uint8_t lane_max[W] = {};
    std::uint32_t entry[W] = {};  // best[] index of each lane's subject

    for (std::size_t r0 = 0; r0 < m; r0 += rows) {
        const std::size_t tm = std::min(rows, m - r0);
        std::fill_n(h, tm, V::zero());
        std::fill_n(e, tm, V::zero());
        const bool first = r0 == 0;
        const bool last = r0 + tm == m;
        for (int l = 0; l < W; ++l) entry[l] = static_cast<std::uint32_t>(l);
        auto next_entry = static_cast<std::uint32_t>(W);
        std::size_t s = 0;
        // H(r0-1, j-1): the diagonal feeding the tile's top row. Starts
        // at the 0 boundary column and then trails crow by one column.
        V carryDiag = V::zero();
        for (std::size_t j = 0; j < columns; ++j) {
            const V dbv = V::load(cols + j * static_cast<std::size_t>(W));
            V vF = first ? V::zero() : cf[j];
            V vDiag = carryDiag;
            carryDiag = first ? V::zero() : crow[j];
            if (s < starts.size() && starts[s].column == j) {
                const std::uint64_t fresh = starts[s++].lanes;
                vMax.store(lane_max);
                for (std::uint64_t b = fresh; b != 0; b &= b - 1) {
                    const int l = std::countr_zero(b);
                    std::uint8_t& out = best[entry[l]];
                    out = std::max(out, lane_max[l]);
                    entry[l] = next_entry++;
                }
                vMax = zero_lanes(vMax, fresh);
                vDiag = zero_lanes(vDiag, fresh);
                for (std::size_t i = 0; i < tm; ++i) {
                    h[i] = zero_lanes(h[i], fresh);
                    e[i] = zero_lanes(e[i], fresh);
                }
            }
            for (std::size_t i = 0; i < tm; ++i) {
                V vH = subs(adds(vDiag, lookup32(p.row(r0 + i), dbv)), vBias);
                vDiag = h[i];
                vH = vmax(vH, e[i]);
                vH = vmax(vH, vF);
                vMax = vmax(vMax, vH);
                h[i] = vH;
                const V vHgap = subs(vH, vGapOE);
                e[i] = vmax(subs(e[i], vGapE), vHgap);
                vF = vmax(subs(vF, vGapE), vHgap);
            }
            if (!last) {
                crow[j] = h[tm - 1];
                cf[j] = vF;
            }
        }
        if (!starts.empty()) {
            // Streamed: each lane's last subject takes this tile's max.
            vMax.store(lane_max);
            for (int l = 0; l < W; ++l) {
                best[entry[l]] = std::max(best[entry[l]], lane_max[l]);
            }
            vMax = V::zero();
        }
    }

    if (starts.empty()) vMax.store(best);
    const auto saturated = [&p](std::uint8_t score) {
        return static_cast<Score>(score) + p.bias >= 255;
    };
    std::uint64_t overflow = 0;
    for (int l = 0; l < W; ++l) {
        if (saturated(best[l])) overflow |= std::uint64_t{1} << l;
    }
    std::size_t r = W;
    for (const SubjectStart& st : starts) {
        for (std::uint64_t b = st.lanes; b != 0; b &= b - 1, ++r) {
            if (saturated(best[r])) {
                overflow |= std::uint64_t{1} << std::countr_zero(b);
            }
        }
    }
    return overflow;
}

/// 16-bit inter-sequence kernel over the same u8-width cohort: each DP
/// row holds two i16 half-vectors (lanes [0, W/2) and [W/2, W) of the
/// residue vector, widened in order), so one cohort layout serves both
/// precisions. Scores are looked up through the shared biased u8 table
/// and un-biased exactly after widening. The carried column state is
/// held as [lo, hi] half-vector pairs at crow/cf[2j, 2j+1], the same
/// widening as the row arrays. With kLoOnly the hi half-vector work is
/// compiled out — for callers that packed at most W/2 lanes
/// (escalation batches); lanes are independent, so the lo lanes'
/// results are identical either way.
template <class V, bool kLoOnly = false>
SWH_HOT_PATH std::uint64_t interseq_tiles_i16(const InterseqProfile& p,
                                              const Code* cols,
                                              std::size_t columns,
                                              GapPenalty gap,
                                              ScanScratch& scratch,
                                              std::int16_t* lane_best) {
    constexpr int W = V::kLanes;
    using VW = decltype(widen_lo(V::zero()));
    for (int l = 0; l < W; ++l) lane_best[l] = 0;
    const std::size_t m = p.query_len;
    if (m == 0 || columns == 0) return 0;

    const VW vGapOE = VW::splat(static_cast<std::int16_t>(
        std::min<Score>(gap.open + gap.extend, 32767)));
    const VW vGapE =
        VW::splat(static_cast<std::int16_t>(std::min<Score>(gap.extend, 32767)));
    const VW vBias = VW::splat(static_cast<std::int16_t>(p.bias));
    const VW vZero = VW::zero();

    const std::size_t tiles = interseq_tile_count(m);
    const std::size_t rows = (m + tiles - 1) / tiles;
    // Row arrays hold [lo, hi] half-vector pairs: entry 2i / 2i+1.
    const std::size_t bytes = 2 * std::min(rows, m) * sizeof(VW);
    const ScanScratch::KernelBuffers bufs = scratch.kernel_buffers(bytes);
    VW* __restrict h = static_cast<VW*>(bufs.h_load);
    VW* __restrict e = static_cast<VW*>(bufs.e);
    const ScanScratch::ColumnCarry carry =
        scratch.column_carry(2 * columns * sizeof(VW));
    VW* __restrict crow = static_cast<VW*>(carry.h);
    VW* __restrict cf = static_cast<VW*>(carry.f);
    VW vMaxLo = VW::zero();
    VW vMaxHi = VW::zero();

    for (std::size_t r0 = 0; r0 < m; r0 += rows) {
        const std::size_t tm = std::min(rows, m - r0);
        std::fill_n(h, 2 * tm, VW::zero());
        std::fill_n(e, 2 * tm, VW::zero());
        const bool first = r0 == 0;
        VW carryDiagLo = VW::zero();
        VW carryDiagHi = VW::zero();
        for (std::size_t j = 0; j < columns; ++j) {
            const V dbv = V::load(cols + j * static_cast<std::size_t>(W));
            VW vFLo = first ? VW::zero() : cf[2 * j];
            VW vFHi = (kLoOnly || first) ? VW::zero() : cf[2 * j + 1];
            VW vDiagLo = carryDiagLo;
            VW vDiagHi = carryDiagHi;
            carryDiagLo = first ? VW::zero() : crow[2 * j];
            carryDiagHi = (kLoOnly || first) ? VW::zero() : crow[2 * j + 1];
            for (std::size_t i = 0; i < tm; ++i) {
                const V s8 = lookup32(p.row(r0 + i), dbv);
                // Exact un-bias: widened entries are in [0, 255], so the
                // subtraction cannot saturate and yields the raw score.
                const VW sLo = subs(widen_lo(s8), vBias);

                VW vH = adds(vDiagLo, sLo);
                vDiagLo = h[2 * i];
                vH = vmax(vH, e[2 * i]);
                vH = vmax(vH, vFLo);
                vH = vmax(vH, vZero);  // local-alignment clamp
                vMaxLo = vmax(vMaxLo, vH);
                h[2 * i] = vH;
                VW vHgap = subs(vH, vGapOE);
                e[2 * i] = vmax(subs(e[2 * i], vGapE), vHgap);
                vFLo = vmax(subs(vFLo, vGapE), vHgap);

                if constexpr (!kLoOnly) {
                    const VW sHi = subs(widen_hi(s8), vBias);
                    vH = adds(vDiagHi, sHi);
                    vDiagHi = h[2 * i + 1];
                    vH = vmax(vH, e[2 * i + 1]);
                    vH = vmax(vH, vFHi);
                    vH = vmax(vH, vZero);
                    vMaxHi = vmax(vMaxHi, vH);
                    h[2 * i + 1] = vH;
                    vHgap = subs(vH, vGapOE);
                    e[2 * i + 1] = vmax(subs(e[2 * i + 1], vGapE), vHgap);
                    vFHi = vmax(subs(vFHi, vGapE), vHgap);
                }
            }
            crow[2 * j] = h[2 * (tm - 1)];
            cf[2 * j] = vFLo;
            if constexpr (!kLoOnly) {
                crow[2 * j + 1] = h[2 * (tm - 1) + 1];
                cf[2 * j + 1] = vFHi;
            }
        }
    }

    vMaxLo.store(lane_best);
    vMaxHi.store(lane_best + W / 2);
    std::uint64_t overflow = 0;
    for (int l = 0; l < W; ++l) {
        if (static_cast<Score>(lane_best[l]) + p.max_raw >= 32767) {
            overflow |= std::uint64_t{1} << l;
        }
    }
    return overflow;
}

}  // namespace swh::align::detail
