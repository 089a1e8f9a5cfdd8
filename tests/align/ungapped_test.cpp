// The gap-slack prefilter kernels (align/ungapped.hpp): the SIMD
// chain-bound kernels must match the scalar reference per lane across
// every ISA level this host supports — including row-range tiles — and
// the bound itself must dominate the exact gapped score on every pair,
// which is the property the scan funnel's pruning soundness rests on.

#include "align/ungapped.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "db/generator.hpp"
#include "util/rng.hpp"

namespace swh::align {
namespace {

const ScoreMatrix& blosum() {
    static const ScoreMatrix m = ScoreMatrix::blosum62();
    return m;
}

constexpr GapPenalty kGap{10, 2};

std::vector<simd::IsaLevel> supported_levels() {
    std::vector<simd::IsaLevel> levels;
    for (const simd::IsaLevel isa :
         {simd::IsaLevel::Scalar, simd::IsaLevel::SSE2, simd::IsaLevel::AVX2,
          simd::IsaLevel::AVX512}) {
        if (simd::is_supported(isa)) levels.push_back(isa);
    }
    return levels;
}

std::vector<Code> interleave(const std::vector<std::vector<Code>>& subjects,
                             int lanes, std::size_t columns) {
    std::vector<Code> cols(columns * static_cast<std::size_t>(lanes),
                           InterseqProfile::kPadCode);
    for (std::size_t l = 0; l < subjects.size(); ++l) {
        for (std::size_t j = 0; j < subjects[l].size(); ++j) {
            cols[j * static_cast<std::size_t>(lanes) + l] = subjects[l][j];
        }
    }
    return cols;
}

std::vector<std::vector<Code>> random_subjects(Rng& rng, std::size_t n,
                                               std::size_t min_len,
                                               std::size_t max_len) {
    std::vector<std::vector<Code>> subjects;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = min_len + rng.below(max_len - min_len + 1);
        subjects.push_back(
            db::random_protein(rng, len, "s" + std::to_string(i)).residues);
    }
    return subjects;
}

TEST(UngappedBound, DominatesExactGappedScoreOnRandomPairs) {
    // The whole design hinges on this inequality: the monotone-row
    // chain bound T* is an upper bound on the affine-gapped score for
    // every (query, subject) pair, so a lane pruned because its bound
    // falls below the running k-th best provably cannot enter the
    // top-k.
    Rng rng(211);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t qlen = 10 + rng.below(240);
        const std::size_t slen = 5 + rng.below(400);
        const auto q = db::random_protein(rng, qlen, "q").residues;
        const auto s = db::random_protein(rng, slen, "s").residues;
        const Score bound = sw_ungapped_scalar(q, s, blosum(), kGap);
        const Score exact = sw_score_affine(q, s, blosum(), kGap);
        EXPECT_GE(bound, exact) << "trial " << trial << " qlen=" << qlen
                                << " slen=" << slen;
        EXPECT_GE(bound, 0);
    }
}

TEST(UngappedBound, DominatesOnHomologousPairs) {
    // Homologs (what the prefilter must NOT prune) score far above the
    // background; the bound has to track them from above too.
    Rng rng(213);
    db::MutationModel model;
    model.substitution_rate = 0.10;
    for (int trial = 0; trial < 10; ++trial) {
        const auto anchor = db::random_protein(rng, 150, "a");
        const auto hom =
            db::mutate(anchor, Alphabet::protein(), model, rng);
        const Score bound = sw_ungapped_scalar(anchor.residues, hom.residues,
                                               blosum(), kGap);
        const Score exact = sw_score_affine(anchor.residues, hom.residues,
                                            blosum(), kGap);
        EXPECT_GE(bound, exact);
        EXPECT_GT(exact, 100);  // the pair is a genuine homolog
    }
}

TEST(UngappedBound, TileSumDominatesGappedScore) {
    // Row-chunked form used for long queries: bounding disjoint query
    // row ranges separately and summing stays a sound upper bound
    // (splitting any alignment at tile boundaries yields legal
    // sub-chains, one per tile).
    Rng rng(217);
    const auto q = db::random_protein(rng, 300, "q").residues;
    for (int trial = 0; trial < 10; ++trial) {
        const auto s =
            db::random_protein(rng, 40 + rng.below(300), "s").residues;
        const Score exact = sw_score_affine(q, s, blosum(), kGap);
        for (const std::size_t rows : {64u, 100u, 256u}) {
            Score sum = 0;
            for (std::size_t r0 = 0; r0 < q.size(); r0 += rows) {
                const std::size_t n = std::min(rows, q.size() - r0);
                sum += sw_ungapped_scalar(
                    std::span<const Code>(q).subspan(r0, n), s, blosum(),
                    kGap);
            }
            EXPECT_GE(sum, exact) << "rows=" << rows << " trial=" << trial;
        }
    }
}

TEST(UngappedKernels, U8MatchesScalarAcrossIsaLevels) {
    Rng rng(221);
    const auto q = db::random_protein(rng, 120, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const simd::IsaLevel isa : supported_levels()) {
        const int W = lanes_u8(isa);
        Rng srng(isa == simd::IsaLevel::Scalar ? 11u : 12u);
        auto subjects =
            random_subjects(srng, static_cast<std::size_t>(W), 5, 200);
        subjects[0] = q;  // self-match: saturates u8
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        std::uint8_t bound8[64];
        const std::uint64_t sat = sw_ungapped_interseq_u8(
            prof, cols.data(), columns, kGap, isa, scratch, bound8);
        EXPECT_TRUE(sat & 1) << simd::to_string(isa);
        for (int l = 0; l < W; ++l) {
            if ((sat >> l) & 1) continue;  // no trusted bound claimed
            EXPECT_EQ(static_cast<Score>(bound8[l]),
                      sw_ungapped_scalar(q, subjects[static_cast<std::size_t>(
                                                l)],
                                         blosum(), kGap))
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(UngappedKernels, RowRangeMatchesScalarOnQuerySlice) {
    // The tiled prefilter calls the kernel with [row_begin, row_end)
    // sub-ranges of the query; each call must equal the scalar bound of
    // that query slice, so the per-lane tile sums inherit the tile-sum
    // soundness proof.
    Rng rng(227);
    const auto q = db::random_protein(rng, 210, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const simd::IsaLevel isa : supported_levels()) {
        const int W = lanes_u8(isa);
        Rng srng(17);
        const auto subjects =
            random_subjects(srng, static_cast<std::size_t>(W), 10, 150);
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        std::uint8_t bound8[64];
        constexpr std::size_t kRows = 70;
        for (std::size_t r0 = 0; r0 < q.size() + kRows; r0 += kRows) {
            const std::uint64_t sat = sw_ungapped_interseq_u8(
                prof, cols.data(), columns, kGap, isa, scratch, bound8, r0,
                r0 + kRows);
            if (r0 >= q.size()) {
                // Fully out-of-range tile: clean zeros, no saturation.
                EXPECT_EQ(sat, 0u);
                for (int l = 0; l < W; ++l) EXPECT_EQ(bound8[l], 0);
                continue;
            }
            const std::size_t n = std::min(kRows, q.size() - r0);
            for (int l = 0; l < W; ++l) {
                if ((sat >> l) & 1) continue;
                EXPECT_EQ(
                    static_cast<Score>(bound8[l]),
                    sw_ungapped_scalar(
                        std::span<const Code>(q).subspan(r0, n),
                        subjects[static_cast<std::size_t>(l)], blosum(),
                        kGap))
                    << "isa=" << simd::to_string(isa) << " lane=" << l
                    << " r0=" << r0;
            }
        }
    }
}

TEST(UngappedKernels, BoundDominatesStripedExactPerLane) {
    // End-to-end per-lane check of the pruning inequality in the exact
    // layout the scanner uses: kernel bound >= striped exact score for
    // every non-saturated lane.
    Rng rng(229);
    const auto q = db::random_protein(rng, 100, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());

    for (const simd::IsaLevel isa : supported_levels()) {
        const int W = lanes_u8(isa);
        const auto subjects =
            random_subjects(rng, static_cast<std::size_t>(W), 10, 250);
        std::size_t columns = 0;
        for (const auto& s : subjects) columns = std::max(columns, s.size());
        const std::vector<Code> cols = interleave(subjects, W, columns);

        ScanScratch scratch;
        std::uint8_t bound8[64];
        const std::uint64_t sat = sw_ungapped_interseq_u8(
            prof, cols.data(), columns, kGap, isa, scratch, bound8);
        const Profile8 p8 = build_profile8(q, blosum(), W);
        for (int l = 0; l < W; ++l) {
            if ((sat >> l) & 1) continue;
            const StripedResult r = sw_striped_u8(
                p8, subjects[static_cast<std::size_t>(l)], kGap, isa);
            if (r.overflow) continue;
            EXPECT_GE(static_cast<Score>(bound8[l]), r.score)
                << "isa=" << simd::to_string(isa) << " lane=" << l;
        }
    }
}

TEST(UngappedKernels, EmptyQueryAndEmptyCohortAreClean) {
    ScanScratch scratch;
    std::uint8_t bound8[64];
    std::vector<Code> cols(64, InterseqProfile::kPadCode);

    const InterseqProfile empty_prof =
        build_interseq_profile({}, blosum());
    EXPECT_EQ(sw_ungapped_interseq_u8(empty_prof, cols.data(), 1, kGap,
                                      simd::IsaLevel::Scalar, scratch,
                                      bound8),
              0u);
    for (int l = 0; l < 16; ++l) EXPECT_EQ(bound8[l], 0);

    Rng rng(239);
    const auto q = db::random_protein(rng, 25, "q").residues;
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    EXPECT_EQ(sw_ungapped_interseq_u8(prof, cols.data(), 0, kGap,
                                      simd::IsaLevel::Scalar, scratch,
                                      bound8),
              0u);
    for (int l = 0; l < 16; ++l) EXPECT_EQ(bound8[l], 0);
    EXPECT_EQ(sw_ungapped_scalar({}, {}, blosum(), kGap), 0);
}

}  // namespace
}  // namespace swh::align
