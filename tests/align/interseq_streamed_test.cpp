// Golden equivalence of lane streaming in the u8 inter-sequence kernel:
// a lane may carry several subjects back to back, and the kernel resets
// the lane's DP state at each subject-start column. Every subject must
// score exactly as it does alone — the striped u8 kernel's score and
// overflow flag, and the scalar oracle wherever it does not saturate —
// on every ISA level this host supports, at query lengths around the
// kernel's row-tile boundary, with the edge shapes of the refill: a
// 1-residue subject, a subject starting at column 1, starts in adjacent
// columns, lanes of three and more subjects, empty lanes, and a
// saturating subject followed by a small one in the same lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
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

using Subject = std::vector<Code>;

/// A streamed cohort built from each lane's subjects, back to back.
struct Streamed {
    std::size_t columns = 0;
    std::vector<Code> cols;
    std::vector<SubjectStart> starts;
    /// Subjects in the kernel's result order: lane heads at [0, W)
    /// (an empty lane's entry holds an empty subject), then followers
    /// in (column, lane) order.
    std::vector<const Subject*> order;
};

Streamed stream(const std::vector<std::vector<Subject>>& lanes, int w) {
    static const Subject kEmpty;
    Streamed c;
    for (const auto& lane : lanes) {
        std::size_t span = 0;
        for (const Subject& s : lane) span += s.size();
        c.columns = std::max(c.columns, span);
    }
    const auto uw = static_cast<std::size_t>(w);
    c.cols.assign(c.columns * uw, InterseqProfile::kPadCode);
    struct Follower {
        std::size_t column;
        int lane;
        const Subject* subject;
    };
    std::vector<Follower> followers;
    c.order.assign(uw, &kEmpty);
    for (int l = 0; l < static_cast<int>(lanes.size()); ++l) {
        std::size_t at = 0;
        for (std::size_t k = 0; k < lanes[l].size(); ++k) {
            const Subject& s = lanes[l][k];
            for (std::size_t j = 0; j < s.size(); ++j) {
                c.cols[(at + j) * uw + static_cast<std::size_t>(l)] = s[j];
            }
            if (k == 0) {
                c.order[static_cast<std::size_t>(l)] = &s;
            } else {
                followers.push_back({at, l, &s});
            }
            at += s.size();
        }
    }
    std::sort(followers.begin(), followers.end(),
              [](const Follower& a, const Follower& b) {
                  return a.column != b.column ? a.column < b.column
                                              : a.lane < b.lane;
              });
    for (const Follower& f : followers) {
        c.order.push_back(f.subject);
        if (c.starts.empty() || c.starts.back().column != f.column) {
            c.starts.push_back({static_cast<std::uint32_t>(f.column), 0});
        }
        c.starts.back().lanes |= std::uint64_t{1} << f.lane;
    }
    return c;
}

/// Runs the streamed kernel and checks every subject against the
/// striped u8 kernel and, unsaturated, the scalar oracle; returns the
/// number of saturated subjects.
int expect_streamed_matches(const std::vector<Code>& q,
                            const std::vector<std::vector<Subject>>& lanes,
                            simd::IsaLevel isa, const std::string& label) {
    const int w = lanes_u8(isa);
    const Streamed c = stream(lanes, w);
    const InterseqProfile prof = build_interseq_profile(q, blosum());
    ScanScratch scratch;
    std::vector<std::uint8_t> best(c.order.size(), 0xEE);
    const std::uint64_t ovf =
        sw_interseq_u8(prof, c.cols.data(), c.columns, kGap, isa, scratch,
                       best.data(), c.starts);

    const Profile8 p8 = build_profile8(q, blosum(), w);
    int saturated = 0;
    std::uint64_t lanes_saturated = 0;
    for (std::size_t r = 0; r < c.order.size(); ++r) {
        const Subject& s = *c.order[r];
        const StripedResult want = sw_striped_u8(p8, s, kGap, isa);
        const Score got = best[r];
        const bool got_ovf = got + prof.bias >= 255;
        EXPECT_EQ(got, want.score) << label << " entry " << r;
        EXPECT_EQ(got_ovf, want.overflow) << label << " entry " << r;
        if (!want.overflow) {
            EXPECT_EQ(got, sw_score_affine(q, s, blosum(), kGap))
                << label << " entry " << r;
        } else {
            ++saturated;
        }
        if (got_ovf) {
            // The lane of entry r: heads are lane r; followers replay
            // the start masks in (column, lane) order.
            std::size_t at = static_cast<std::size_t>(w);
            int lane = static_cast<int>(r);
            for (const SubjectStart& st : c.starts) {
                for (std::uint64_t b = st.lanes; b != 0; b &= b - 1, ++at) {
                    if (at == r) lane = std::countr_zero(b);
                }
            }
            lanes_saturated |= std::uint64_t{1} << lane;
        }
    }
    EXPECT_EQ(ovf, lanes_saturated) << label;
    return saturated;
}

Subject random_subject(Rng& rng, std::size_t len) {
    return db::random_protein(rng, len, "s").residues;
}

TEST(InterseqStreamedKernel, EverySubjectScoresAsIfAlone) {
    std::uint32_t seed = 401;
    for (const std::size_t qlen : {std::size_t{1}, kInterseqTileRows - 1,
                                   kInterseqTileRows, kInterseqTileRows + 1,
                                   std::size_t{600}}) {
        Rng qrng(seed++);
        const std::vector<Code> q = random_subject(qrng, qlen);
        for (const simd::IsaLevel isa : supported_levels()) {
            const int w = lanes_u8(isa);
            Rng rng(seed + static_cast<std::uint32_t>(w));
            std::vector<std::vector<Subject>> lanes(
                static_cast<std::size_t>(w));
            // Lane 0: one long subject (the cohort's column count).
            lanes[0] = {random_subject(rng, 320)};
            // Lane 1: a 1-residue head, so a subject starts at column 1.
            lanes[1] = {random_subject(rng, 1), random_subject(rng, 90)};
            // Lane 2: starts in adjacent columns (1-residue subjects).
            lanes[2] = {random_subject(rng, 40), random_subject(rng, 1),
                        random_subject(rng, 1), random_subject(rng, 1),
                        random_subject(rng, 70)};
            // Lane 3: several subjects back to back.
            lanes[3] = {random_subject(rng, 60), random_subject(rng, 50),
                        random_subject(rng, 80), random_subject(rng, 30)};
            // Lane 4 stays empty; the rest carry 1..4 random subjects
            // whose starts also collide across lanes.
            for (int l = 5; l < w; ++l) {
                const std::size_t n = 1 + rng.below(4);
                for (std::size_t k = 0; k < n; ++k) {
                    lanes[static_cast<std::size_t>(l)].push_back(
                        random_subject(rng, 1 + rng.below(80)));
                }
            }
            expect_streamed_matches(
                q, lanes, isa,
                "isa=" + std::string(simd::to_string(isa)) +
                    " qlen=" + std::to_string(qlen));
        }
    }
}

TEST(InterseqStreamedKernel, ResetClearsSaturationForTheNextSubject) {
    // A lane streams a copy of the query (its self-score saturates u8)
    // and then a small unrelated subject: the reset must clear the
    // running max, so only the first subject is flagged — on one tile
    // and across tiles.
    for (const std::size_t qlen : {std::size_t{180}, std::size_t{600}}) {
        Rng rng(431 + static_cast<std::uint32_t>(qlen));
        const std::vector<Code> q = random_subject(rng, qlen);
        for (const simd::IsaLevel isa : supported_levels()) {
            const int w = lanes_u8(isa);
            std::vector<std::vector<Subject>> lanes(
                static_cast<std::size_t>(w));
            lanes[0] = {q, random_subject(rng, 12)};
            lanes[1] = {random_subject(rng, 20), q, random_subject(rng, 5)};
            lanes[2] = {random_subject(rng, qlen + 17)};
            const std::string label =
                "isa=" + std::string(simd::to_string(isa)) +
                " qlen=" + std::to_string(qlen);
            EXPECT_EQ(expect_streamed_matches(q, lanes, isa, label), 2)
                << label;
        }
    }
}

TEST(InterseqStreamedKernel, NoStartsIsThePerLaneKernel) {
    // Without starts the result entries are the per-lane maxima, so
    // one subject per lane runs exactly the classic kernel.
    Rng rng(457);
    const std::vector<Code> q = random_subject(rng, 140);
    for (const simd::IsaLevel isa : supported_levels()) {
        const int w = lanes_u8(isa);
        std::vector<std::vector<Subject>> lanes(static_cast<std::size_t>(w));
        for (int l = 0; l + 1 < w; ++l) {
            lanes[static_cast<std::size_t>(l)] = {
                random_subject(rng, 20 + rng.below(150))};
        }
        const Streamed c = stream(lanes, w);
        ASSERT_TRUE(c.starts.empty());
        expect_streamed_matches(q, lanes, isa,
                                "isa=" + std::string(simd::to_string(isa)));
    }
}

}  // namespace
}  // namespace swh::align
