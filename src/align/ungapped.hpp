#pragma once

// Ungapped gap-slack prefilter kernels — stage 1 of the three-stage scan
// funnel (see align/db_scan.hpp).
//
// The kernels compute, per subject lane, the best score over CHAINS of
// ungapped diagonal segments where linking two segments is charged one
// gap open and restarts may only source from strictly earlier query
// rows (row-monotone):
//
//   T(i,j) = max(0, max(T(i-1,j-1), A(i,j-1) - open) + s(q_i, d_j))
//   A(i,j) = max over i' < i, j' <= j of T(i', j')
//
// A(i, .) is a plain prefix maximum down the rows, so the kernels keep
// exactly two query-length DP rows (H and A) and no E/F state, and run
// at roughly 60% of the cost of the full inter-sequence Smith-Waterman
// kernel on the same cohort geometry and transposed query profile
// (align/interseq.hpp).
//
// Soundness: take any gapped local alignment and its aligned pairs in
// order. Consecutive pairs (i',j') -> (i,j) are either diagonal
// neighbours (the T(i-1,j-1) + s transition) or separated by gap runs
// with i' < i and j' < j whose true affine cost is at least one gap
// open — and the restart transition charges exactly open while sourcing
// from A(i,j-1), which contains T(i',j') because i' <= i-1 and
// j' <= j-1. So every gapped alignment path maps cell-by-cell to a
// T-path of at least its score:
//
//   gapped(Q,S) <= T*(Q,S)   (the kernel's per-lane maximum).
//
// The row-monotonicity is what keeps the bound tight: without it a
// chain could re-align the query's best segment to many subject
// positions, inflating the bound linearly in subject length. Forcing
// strictly increasing rows caps the total matched weight by what
// distinct query rows can contribute, which keeps random-background
// bounds within a small factor of the exact gapped score while true
// homologs stay high (their exact score is itself a witness chain).
//
// The kernels take a query row range so callers can tile long queries:
// splitting any chain (or gapped alignment) path at a row boundary
// yields one legal sub-path per tile, and summing the tiles' bounds
// simply forgoes charging the link between them — so
//
//   gapped(Q,S) <= sum over row tiles R of T*(Q[R], S)
//
// stays a sound upper bound while each tile's DP state fits in L1 and
// its per-tile maximum stays inside the 8-bit range (the funnel uses
// ~256-row tiles, see db_scan.hpp kFilterChunkRows).
//
// A subject whose bound falls strictly below the running k-th best
// exact score therefore provably cannot enter the final top-k, and the
// funnel may skip its exact alignment without changing the result.
// See DESIGN.md "Prefilter funnel" for the full argument.

#include <cstdint>
#include <span>

#include "align/interseq.hpp"
#include "align/score_matrix.hpp"
#include "align/sequence.hpp"
#include "simd/arch.hpp"
#include "util/annotations.hpp"

namespace swh::align {

class ScanScratch;

/// Exact (int arithmetic, no saturation) scalar reference of the
/// gap-slack chain bound computed by the interseq kernels below. Used
/// by tests and the funnel soundness suite.
Score sw_ungapped_scalar(std::span<const Code> a, std::span<const Code> b,
                         const ScoreMatrix& matrix, GapPenalty gap);

/// 8-bit gap-slack prefilter kernel over one cohort — same geometry and
/// profile as sw_interseq_u8 (align/interseq.hpp): `cols` points at
/// `columns` column-major residue columns of `lanes_u8(isa)` lanes.
/// Writes each lane's chain bound (unbiased) over query rows
/// [row_begin, min(row_end, query_len)) to lane_best[0..lanes) and
/// returns the saturating-overflow lane mask (bit l set = lane l may
/// have saturated, `score + bias >= 255` — those lanes carry no
/// trustworthy bound and must be treated as survivors). Residues must
/// be pre-validated.
SWH_HOT_PATH std::uint64_t sw_ungapped_interseq_u8(const InterseqProfile& profile,
                                      const Code* cols, std::size_t columns,
                                      GapPenalty gap, simd::IsaLevel isa,
                                      ScanScratch& scratch,
                                      std::uint8_t* lane_best,
                                      std::size_t row_begin = 0,
                                      std::size_t row_end = SIZE_MAX);

}  // namespace swh::align
