#pragma once

// Inter-sequence Smith-Waterman scan kernels (SWIPE / SWAPHI style):
// one database subject per SIMD lane, W subjects scored at once. Unlike
// the intra-sequence striped kernel (Farrar), throughput does not
// degrade on short queries — there is no lazy-F correction pass, no
// query-padding waste, and the per-column work is a plain row sweep —
// so the scan dispatcher prefers these kernels for short/medium
// queries and falls back to the striped kernel elsewhere.
//
// The subjects come from a lane-interleaved cohort layout (see
// db::PackedDatabase::interleaved): length-adjacent subjects grouped
// into a cohort of W lanes, residues stored column-major (column j
// holds residue j of every lane), short lanes padded with kPadCode.
// A lane may carry several subjects back to back; the u8 kernel resets
// the lane at each subject start (SWIPE's lane refill). Scoring uses a
// TRANSPOSED query profile: row i is a 32-entry table of biased scores
// of query residue i against every alphabet symbol, gathered per lane
// by the subject residue (simd lookup32). This needs every residue
// code, including the padding sentinel, to fit in 5 bits — hence the
// alphabet-size gate in interseq_supported().

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "align/score_matrix.hpp"
#include "align/sequence.hpp"
#include "simd/arch.hpp"
#include "util/annotations.hpp"

namespace swh::align {

class ScanScratch;

/// A column of a lane-streamed cohort at which lanes start a new
/// subject (SWIPE-style lane refill): each lane in `lanes` ends its
/// previous subject at column - 1 and starts the next one at `column`.
struct SubjectStart {
    std::uint32_t column = 0;
    std::uint64_t lanes = 0;  ///< bit l set = lane l starts a subject
};

/// One subject of a cohort: where it sits in the interleaved columns.
struct CohortMember {
    std::uint32_t slot = 0;    ///< scan-order slot of the subject
    std::uint32_t lane = 0;
    std::uint32_t column = 0;  ///< first column of the subject in its lane
};

/// One width-W cohort of the lane-interleaved database layout. A lane
/// may hold several subjects back to back (a *streamed* cohort): each
/// later one starts at the column where the previous one ends, and the
/// kernel resets the lane's DP state there (see SubjectStart).
struct CohortDesc {
    std::uint64_t offset = 0;     ///< Code offset into the cohort arena
    std::uint64_t residues = 0;   ///< real residues (sum of member lengths)
    std::uint32_t columns = 0;    ///< stored columns = longest lane span
    /// First member: index into InterleavedCohorts::members.
    std::uint32_t first_member = 0;
    std::uint32_t lanes_used = 0; ///< lanes [0, lanes_used) hold subjects
    /// Subjects in the cohort (member table entries); exceeds lanes_used
    /// exactly when the cohort is streamed.
    std::uint32_t subjects = 0;
    std::uint32_t first_start = 0;  ///< index into InterleavedCohorts::starts
    std::uint32_t starts = 0;       ///< subject-start columns; 0 = not streamed
};

/// Non-owning view of a lane-interleaved cohort layout. Column j of a
/// cohort is `lanes` consecutive bytes at `arena + offset + j*lanes`
/// (pad lanes past lanes_used, and lane tails past their last subject,
/// hold only pad_code).
///
/// Member table order, per cohort: the lanes_used lane heads (member l
/// starts lane l at column 0), then the followers in ascending
/// (column, lane) order — the order the u8 kernel retires them in, see
/// sw_interseq_u8. `starts` lists, per cohort, the follower start
/// columns ascending, each with its lane mask.
struct InterleavedCohorts {
    const Code* arena = nullptr;
    const CohortDesc* cohorts = nullptr;
    /// Cohort-major member table; required whenever count > 0.
    const CohortMember* members = nullptr;
    const SubjectStart* starts = nullptr;
    std::size_t count = 0;
    int lanes = 0;
    Code pad_code = 0;

    /// Subject-start columns of cohort d (empty unless streamed).
    std::span<const SubjectStart> starts_of(const CohortDesc& d) const {
        return d.starts == 0
                   ? std::span<const SubjectStart>{}
                   : std::span<const SubjectStart>{starts + d.first_start,
                                                   d.starts};
    }
};

/// Transposed query profile for the inter-sequence kernels: row i holds
/// the biased score of query residue i against every alphabet symbol,
/// padded to a 32-entry lookup table (slots past the alphabet — which
/// include kPadCode — stay 0, the most-penalising biased score, so
/// padded lanes decay and retire).
struct InterseqProfile {
    static constexpr std::size_t kStride = 32;  ///< LUT row width
    /// Padding sentinel residue: always the top 5-bit code, so it can
    /// never collide with a real symbol (interseq_supported() requires
    /// alphabet size <= 31).
    static constexpr Code kPadCode = 31;

    std::size_t query_len = 0;
    Score bias = 0;      ///< added to every stored entry (>= 0)
    Score max_raw = 0;   ///< largest unbiased entry; bounds one i16 add
    std::size_t symbols = 0;
    std::vector<std::uint8_t> data;  ///< query_len rows of kStride
    std::size_t align_pad = 0;       ///< bytes from data.data() to base

    const std::uint8_t* row(std::size_t i) const {
        return data.data() + align_pad + i * kStride;
    }
};

/// Query rows per tile of the inter-sequence kernels: each tile's DP
/// row arrays (two query-tile rows of W-lane vectors) stay L1/L2
/// resident where a monolithic sweep of a 2000+ residue query spills.
/// A query of up to this many rows is a single tile.
constexpr std::size_t kInterseqTileRows = 256;

/// Number of query tiles the kernels cut a query of `qlen` rows into:
/// balanced tiles (sizes differ by at most one row) of at most
/// kInterseqTileRows rows each.
constexpr std::size_t interseq_tile_count(std::size_t qlen) {
    return qlen <= kInterseqTileRows
               ? std::size_t{1}
               : (qlen + kInterseqTileRows - 1) / kInterseqTileRows;
}

/// True if the matrix fits the inter-sequence kernels: alphabet small
/// enough for 5-bit codes plus the padding sentinel, and the biased
/// score range inside u8.
bool interseq_supported(const ScoreMatrix& matrix);

InterseqProfile build_interseq_profile(std::span<const Code> query,
                                       const ScoreMatrix& matrix);

/// 8-bit inter-sequence kernel over one cohort: `cols` points at
/// `columns` column-major residue columns of `lanes_u8(isa)` lanes.
/// Residues must be pre-validated (< alphabet size, or == kPadCode).
/// The query is processed in interseq_tile_count() row tiles whose
/// carried column state lives in `scratch` (ScanScratch::column_carry),
/// so a warm scratch makes the call allocation-free at any query length.
///
/// `starts` (ascending columns, each > 0) streams several subjects
/// through a lane: at each start column the lanes in its mask report
/// their running max as the finished subject's best and restart from
/// the zero boundary, so every subject scores exactly as if it ran
/// alone. `best` receives one unbiased score per subject: entries
/// [0, W) for the lane heads (lane l's first subject, 0 for an empty
/// lane), then one per follower in (column, lane) order — W plus the
/// summed popcount of the start masks in all. Returns the saturating-
/// overflow lane mask: bit l set = some subject of lane l may have
/// saturated (`score + bias >= 255`, the striped u8 kernel's bound);
/// callers of a streamed cohort apply that rule per subject, and
/// flagged subjects must be settled by a wider kernel.
SWH_HOT_PATH std::uint64_t sw_interseq_u8(const InterseqProfile& profile, const Code* cols,
                             std::size_t columns, GapPenalty gap,
                             simd::IsaLevel isa, ScanScratch& scratch,
                             std::uint8_t* best,
                             std::span<const SubjectStart> starts = {});

/// 16-bit companion over one subject per lane (the scanner only feeds
/// it re-packed escalation cohorts): same cohort geometry (the u8 lane
/// count — each lane is widened to two i16 half-vectors internally),
/// same tiling, per-lane i16 best scores and the
/// `score + max_raw >= 32767` overflow mask of the striped i16 kernel. `lanes_used` is an optional
/// occupancy hint (0 = all lanes): when the caller packed at most half
/// the lanes — typical for the scanner's 8 -> 16 escalation batches —
/// the kernel skips the all-pad hi half-vectors entirely. Lanes are
/// dataflow-independent, so the used lanes' scores and overflow bits
/// are unchanged; unused lanes report score 0.
SWH_HOT_PATH std::uint64_t sw_interseq_i16(const InterseqProfile& profile, const Code* cols,
                              std::size_t columns, GapPenalty gap,
                              simd::IsaLevel isa, ScanScratch& scratch,
                              std::int16_t* lane_best,
                              std::size_t lanes_used = 0);

}  // namespace swh::align
