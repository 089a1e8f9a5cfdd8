#include "db/packed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/database.hpp"
#include "db/presets.hpp"
#include "util/error.hpp"

namespace swh::db {
namespace {

db::Database make_db(std::size_t n = 30, std::uint64_t seed = 3) {
    DatabaseSpec spec;
    spec.name = "packed-test";
    spec.num_sequences = n;
    spec.length.min_len = 10;
    spec.length.max_len = 300;
    spec.seed = seed;
    return Database::generate(spec);
}

TEST(PackedDatabase, ArenaMatchesSequences) {
    const Database database = make_db();
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    ASSERT_EQ(packed.size(), database.size());
    EXPECT_EQ(packed.residues(), database.residues());
    std::size_t max_len = 0;
    for (std::size_t i = 0; i < database.size(); ++i) {
        const auto& seq = database[i].residues;
        const auto sub = packed.subject(i);
        ASSERT_EQ(sub.size(), seq.size());
        EXPECT_TRUE(std::equal(sub.begin(), sub.end(), seq.begin()));
        max_len = std::max(max_len, seq.size());
    }
    EXPECT_EQ(packed.max_length(), max_len);
}

TEST(PackedDatabase, ArenaIs64ByteAligned) {
    const Database database = make_db(5);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    // The arena is laid out in scan order, so the first scanned subject
    // sits at the (64-byte-aligned) arena base.
    const auto* base = packed.subject(packed.scan_order()[0]).data();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % 64, 0u);
}

TEST(PackedDatabase, ArenaIsContiguousInScanOrder) {
    const Database database = make_db(40, 11);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    const auto order = packed.scan_order();
    const align::Code* expect =
        packed.size() ? packed.subject(order[0]).data() : nullptr;
    for (const std::uint32_t idx : order) {
        const auto sub = packed.subject(idx);
        EXPECT_EQ(sub.data(), expect) << "gap in scan-order arena layout";
        expect = sub.data() + sub.size();
    }
}

TEST(PackedDatabase, ScanOrderIsLengthSortedPermutation) {
    const Database database = make_db(50, 9);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    const auto order = packed.scan_order();
    ASSERT_EQ(order.size(), packed.size());
    std::vector<bool> seen(packed.size(), false);
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
        ASSERT_LT(order[slot], packed.size());
        EXPECT_FALSE(seen[order[slot]]) << "duplicate index in scan order";
        seen[order[slot]] = true;
        if (slot > 0) {
            const std::uint32_t prev = order[slot - 1];
            const std::uint32_t cur = order[slot];
            // Longest first; equal lengths keep original index order.
            EXPECT_TRUE(packed.length(prev) > packed.length(cur) ||
                        (packed.length(prev) == packed.length(cur) &&
                         prev < cur));
        }
    }
}

TEST(PackedDatabase, MaxCodeReflectsArenaContents) {
    const Database database = make_db(20, 11);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    align::Code expected = 0;
    for (const auto& s : database.sequences()) {
        for (const align::Code c : s.residues) expected = std::max(expected, c);
    }
    EXPECT_EQ(packed.max_code(), expected);
    // Generated proteins use the 20 standard residues of the 24-letter
    // protein alphabet.
    EXPECT_LT(packed.max_code(), align::Alphabet::protein().size());
}

TEST(PackedDatabase, EmptyDatabase) {
    const PackedDatabase packed = PackedDatabase::pack({});
    EXPECT_EQ(packed.size(), 0u);
    EXPECT_EQ(packed.residues(), 0u);
    const align::PackedSubjects v = packed.view();
    EXPECT_EQ(v.count, 0u);
}

TEST(PackedDatabase, DatabaseCachesPackedForm) {
    const Database database = make_db(10, 13);
    const PackedDatabase* first = &database.packed();
    EXPECT_EQ(first, &database.packed());
    // Copies share the cache (sequences are immutable).
    const Database copy = database;  // NOLINT(performance-unnecessary-copy)
    EXPECT_EQ(first, &copy.packed());
}

TEST(PackedDatabase, ConcurrentPackedAccessIsSafe) {
    const Database database = make_db(40, 17);
    std::vector<const PackedDatabase*> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&database, &seen, t] {
            seen[t] = &database.packed();
        });
    }
    for (auto& th : threads) th.join();
    for (const PackedDatabase* p : seen) EXPECT_EQ(p, seen[0]);
    EXPECT_EQ(seen[0]->residues(), database.residues());
}

TEST(PackedDatabase, ScanOrderTieBreakIsBitReproducible) {
    // Many equal-length subjects: ties must keep ascending original
    // index, and packing twice must give the identical permutation —
    // scan output order (and thus cohort membership) is reproducible
    // run to run.
    std::vector<align::Sequence> seqs;
    for (int i = 0; i < 200; ++i) {
        const auto len = static_cast<std::size_t>(20 + (i % 4) * 10);
        seqs.push_back(align::Sequence{
            "t" + std::to_string(i), "",
            std::vector<align::Code>(len, static_cast<align::Code>(i % 20))});
    }
    const PackedDatabase a = PackedDatabase::pack(seqs);
    const PackedDatabase b = PackedDatabase::pack(seqs);
    ASSERT_EQ(a.scan_order().size(), seqs.size());
    EXPECT_TRUE(std::equal(a.scan_order().begin(), a.scan_order().end(),
                           b.scan_order().begin()));
    const auto order = a.scan_order();
    for (std::size_t slot = 1; slot < order.size(); ++slot) {
        const std::uint32_t prev = order[slot - 1];
        const std::uint32_t cur = order[slot];
        if (a.length(prev) == a.length(cur)) {
            EXPECT_LT(prev, cur) << "equal-length tie broke out of order";
        } else {
            EXPECT_GT(a.length(prev), a.length(cur));
        }
    }
}

/// Structural invariants every interleaved layout must satisfy: each
/// subject packed exactly once; heads first, then followers in
/// (column, lane) order; the subjects of a lane contiguous from column
/// 0 with no pad between them and within the cohort's columns; the
/// arena matching each subject at its lane and start column; the
/// starts table matching the followers; every cohort but a final tail
/// of at most W subjects and the singletons at the fill bar.
void check_layout(const PackedDatabase& packed, int lanes) {
    const InterleavedChunks& chunks = packed.interleaved(lanes);
    EXPECT_EQ(chunks.lanes(), lanes);
    const auto order = packed.scan_order();
    const align::InterleavedCohorts v = chunks.view();
    EXPECT_EQ(v.count, chunks.cohort_count());
    EXPECT_EQ(v.lanes, lanes);
    EXPECT_EQ(v.pad_code, align::InterseqProfile::kPadCode);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.arena) % 64, 0u);
    if (packed.size() > 0) {
        ASSERT_NE(v.members, nullptr);
        ASSERT_EQ(chunks.members().size(), packed.size());
    }

    const std::uint64_t w = static_cast<std::uint64_t>(lanes);
    std::vector<int> seen(packed.size(), 0);
    std::uint32_t next_member = 0;
    std::uint32_t next_start = 0;
    for (std::size_t c = 0; c < v.count; ++c) {
        const align::CohortDesc& d = v.cohorts[c];
        if (c > 0) {
            // Longest-first cohort order keeps claim balancing.
            EXPECT_LE(d.columns, v.cohorts[c - 1].columns);
        }
        ASSERT_GE(d.lanes_used, 1u);
        ASSERT_LE(d.lanes_used, w);
        ASSERT_GE(d.subjects, d.lanes_used);
        EXPECT_EQ(d.first_member, next_member);
        EXPECT_EQ(d.first_start, next_start);
        next_member += d.subjects;
        next_start += d.starts;
        if (d.subjects > d.lanes_used) {
            // Only a full-width cohort has anything left to stream.
            EXPECT_EQ(d.lanes_used, w);
        }
        const bool tail = c + 1 == v.count && d.subjects == d.lanes_used;
        if (d.subjects > 1 && !tail) {
            EXPECT_GE(d.residues * 100,
                      std::uint64_t{d.columns} * w *
                          align::DatabaseScanner::kInterseqMinFillPct)
                << "cohort " << c;
        }

        std::vector<std::uint32_t> lane_end(w, 0);
        std::vector<std::uint64_t> start_lanes;  // per distinct column
        std::vector<std::uint32_t> start_cols;
        std::uint64_t residues = 0;
        for (std::uint32_t k = 0; k < d.subjects; ++k) {
            const align::CohortMember& mb = v.members[d.first_member + k];
            ASSERT_LT(mb.slot, packed.size());
            ASSERT_LT(mb.lane, d.lanes_used);
            ++seen[mb.slot];
            const auto sub = packed.subject(order[mb.slot]);
            residues += sub.size();
            if (k < d.lanes_used) {
                EXPECT_EQ(mb.lane, k) << "cohort " << c;
                EXPECT_EQ(mb.column, 0u) << "cohort " << c;
            } else {
                EXPECT_GT(mb.column, 0u);
                EXPECT_FALSE(sub.empty());
                const align::CohortMember& prev =
                    v.members[d.first_member + k - 1];
                if (k > d.lanes_used) {
                    EXPECT_TRUE(prev.column < mb.column ||
                                (prev.column == mb.column &&
                                 prev.lane < mb.lane))
                        << "cohort " << c << " member " << k;
                }
                if (start_cols.empty() || start_cols.back() != mb.column) {
                    start_cols.push_back(mb.column);
                    start_lanes.push_back(0);
                }
                start_lanes.back() |= std::uint64_t{1} << mb.lane;
            }
            // Back to back: each subject starts where its lane's
            // previous one ended.
            EXPECT_EQ(mb.column, lane_end[mb.lane])
                << "cohort " << c << " member " << k;
            lane_end[mb.lane] = mb.column + static_cast<std::uint32_t>(
                                                sub.size());
            ASSERT_LE(lane_end[mb.lane], d.columns) << "cohort " << c;
            if (k == 0) {
                EXPECT_EQ(d.columns, sub.size());  // the longest leads
            }
            for (std::size_t j = 0; j < sub.size(); ++j) {
                EXPECT_EQ(v.arena[d.offset + (mb.column + j) * w + mb.lane],
                          sub[j])
                    << "cohort " << c << " member " << k << " col " << j;
            }
        }
        EXPECT_EQ(d.residues, residues);
        // Lane tails and absent lanes are pure padding: the kernels
        // always run the cohort at full width.
        for (std::uint64_t l = 0; l < w; ++l) {
            for (std::size_t j = lane_end[l]; j < d.columns; ++j) {
                EXPECT_EQ(v.arena[d.offset + j * w + l],
                          align::InterseqProfile::kPadCode)
                    << "cohort " << c << " lane " << l << " col " << j;
            }
        }
        const auto starts = v.starts_of(d);
        ASSERT_EQ(starts.size(), start_cols.size()) << "cohort " << c;
        for (std::size_t i = 0; i < starts.size(); ++i) {
            EXPECT_EQ(starts[i].column, start_cols[i]);
            EXPECT_EQ(starts[i].lanes, start_lanes[i]);
        }
    }
    EXPECT_EQ(next_member, chunks.members().size());
    EXPECT_EQ(next_start, chunks.starts().size());
    for (std::size_t s = 0; s < seen.size(); ++s) {
        EXPECT_EQ(seen[s], 1) << "scan slot " << s
                              << " not packed exactly once";
    }
}

/// Real-residue share of the layout's W x columns cells.
double layout_fill(const InterleavedChunks& chunks) {
    double residues = 0.0;
    double cells = 0.0;
    for (std::size_t c = 0; c < chunks.cohort_count(); ++c) {
        residues += static_cast<double>(chunks.cohort(c).residues);
        cells += static_cast<double>(chunks.cohort(c).columns) *
                 chunks.lanes();
    }
    return cells == 0.0 ? 1.0 : residues / cells;
}

/// True when cohort c is today's natural group: one subject per lane,
/// the W (or, for a final tail, fewer) consecutive scan slots from
/// `first_slot`, in lane order.
bool natural_group(const InterleavedChunks& chunks, std::size_t c,
                   std::uint32_t first_slot, std::uint32_t count) {
    const align::CohortDesc& d = chunks.cohort(c);
    if (d.lanes_used != count || d.subjects != count || d.starts != 0) {
        return false;
    }
    for (std::uint32_t l = 0; l < count; ++l) {
        const align::CohortMember& mb = chunks.members()[d.first_member + l];
        if (mb.slot != first_slot + l || mb.lane != l || mb.column != 0) {
            return false;
        }
    }
    return true;
}

std::vector<align::Sequence> fixed_lengths(
    const std::vector<std::pair<std::size_t, std::size_t>>& runs) {
    std::vector<align::Sequence> seqs;
    for (const auto& [count, len] : runs) {
        for (std::size_t i = 0; i < count; ++i) {
            seqs.push_back(align::Sequence{
                "s" + std::to_string(seqs.size()), "",
                std::vector<align::Code>(
                    len, static_cast<align::Code>(seqs.size() % 20))});
        }
    }
    return seqs;
}

TEST(InterleavedChunksTest, CohortLayoutMatchesScanOrder) {
    const Database database = make_db(75, 19);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    check_layout(packed, 16);
    check_layout(packed, 64);
}

TEST(InterleavedChunksTest, UniformLengthsStayNaturalCohorts) {
    // Equal lengths leave no lane room: 70 = 4 full natural cohorts +
    // a 6-subject tail, one subject per lane, exactly the consecutive
    // scan-slot groups.
    const PackedDatabase packed =
        PackedDatabase::pack(fixed_lengths({{70, 80}}));
    constexpr int kLanes = 16;
    const InterleavedChunks& chunks = packed.interleaved(kLanes);
    check_layout(packed, kLanes);
    ASSERT_EQ(chunks.cohort_count(), 5u);
    EXPECT_TRUE(chunks.starts().empty());
    for (std::uint32_t c = 0; c < 5; ++c) {
        EXPECT_TRUE(natural_group(chunks, c, 16 * c, c < 4 ? 16 : 6))
            << "cohort " << c;
    }
}

TEST(InterleavedChunksTest, NarrowLengthsKeepNaturalGroups) {
    // Dense lengths (200..260 aa): no lane's leftover room (< 61) fits a
    // remaining subject (>= 200), so every cohort is the natural group
    // of W consecutive scan slots, as before lane streaming.
    DatabaseSpec spec;
    spec.name = "narrow";
    spec.num_sequences = 320;
    spec.length.min_len = 200;
    spec.length.max_len = 260;
    spec.seed = 29;
    const Database database = Database::generate(spec);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    for (const int lanes : {16, 32, 64}) {
        const InterleavedChunks& chunks = packed.interleaved(lanes);
        check_layout(packed, lanes);
        const auto w = static_cast<std::uint32_t>(lanes);
        ASSERT_EQ(chunks.cohort_count(), 320u / w);
        EXPECT_TRUE(chunks.starts().empty());
        for (std::uint32_t c = 0; c < chunks.cohort_count(); ++c) {
            EXPECT_TRUE(natural_group(chunks, c, c * w, w))
                << "lanes " << lanes << " cohort " << c;
        }
    }
}

TEST(InterleavedChunksTest, RaggedLengthsCompactIntoDenseCohorts) {
    // A length cliff: 8 subjects of 400 and 58 of 40. The natural group
    // mixing them would fill 8*400+8*40 / 16*400 = 55%; streamed, the
    // eight short-headed lanes take the other 50 short subjects back
    // to back (9 fit each 360-column room), so everything rides in one
    // 400-column cohort at 5520 / 6400 = 86% fill.
    const PackedDatabase packed =
        PackedDatabase::pack(fixed_lengths({{8, 400}, {58, 40}}));
    constexpr int kLanes = 16;
    const InterleavedChunks& chunks = packed.interleaved(kLanes);
    check_layout(packed, kLanes);
    ASSERT_EQ(chunks.cohort_count(), 1u);
    const align::CohortDesc& d = chunks.cohort(0);
    EXPECT_EQ(d.columns, 400u);
    EXPECT_EQ(d.lanes_used, 16u);
    EXPECT_EQ(d.subjects, 66u);
    EXPECT_EQ(d.residues, 8u * 400 + 58u * 40);
    // Followers start every 40 columns in lanes 8..15 (at most 6 or 7
    // per lane: 50 followers over 8 lanes, largest room first).
    ASSERT_GT(d.starts, 0u);
    for (const align::SubjectStart& st : chunks.view().starts_of(d)) {
        EXPECT_EQ(st.column % 40, 0u);
        EXPECT_EQ(st.lanes & 0xFFu, 0u) << "long lanes have no room";
    }
}

TEST(InterleavedChunksTest, IsolatedOutlierGetsSingleSubjectCohort) {
    // One 20000-residue outlier over 500 subjects of 300: the remaining
    // residues could fill only 170000 / (64 x 20000) = 13% of a cohort
    // opened at the outlier's length, so the guard makes it a singleton
    // instead of pulling the database into one sparse cohort. The rest
    // are natural groups: 7 full cohorts and a 52-subject tail.
    const PackedDatabase packed =
        PackedDatabase::pack(fixed_lengths({{1, 20000}, {500, 300}}));
    constexpr int kLanes = 64;
    const InterleavedChunks& chunks = packed.interleaved(kLanes);
    check_layout(packed, kLanes);
    ASSERT_EQ(chunks.cohort_count(), 9u);
    const align::CohortDesc& outlier = chunks.cohort(0);
    EXPECT_EQ(outlier.columns, 20000u);
    EXPECT_EQ(outlier.lanes_used, 1u);
    EXPECT_EQ(outlier.subjects, 1u);
    for (std::uint32_t c = 1; c < 9; ++c) {
        EXPECT_TRUE(natural_group(chunks, c, 1 + 64 * (c - 1),
                                  c < 8 ? 64 : 52))
            << "cohort " << c;
    }
    // No more cells than one subject per lane needs: the outlier's own
    // cohort plus eight of 300 columns (500 subjects over 64 lanes).
    std::uint64_t cells = 0;
    for (std::size_t c = 0; c < chunks.cohort_count(); ++c) {
        cells += std::uint64_t{chunks.cohort(c).columns} * kLanes;
    }
    EXPECT_LE(cells, (20000u + 8u * 300u) * std::uint64_t{kLanes});
}

TEST(InterleavedChunksTest, UnderfilledCohortRollsBackToSingleton) {
    // At W = 4 a cohort opened at 100 columns takes heads 100, 51, 51,
    // 51; no remaining 51 fits a 49-column room, so it would end at
    // 253 / 400 = 63% < kInterseqMinFillPct. It is rolled back and the
    // 100 rides alone; the 51s form a full cohort and a 3-subject tail.
    const PackedDatabase packed =
        PackedDatabase::pack(fixed_lengths({{1, 100}, {7, 51}}));
    const InterleavedChunks& chunks = packed.interleaved(4);
    check_layout(packed, 4);
    ASSERT_EQ(chunks.cohort_count(), 3u);
    EXPECT_TRUE(natural_group(chunks, 0, 0, 1));
    EXPECT_TRUE(natural_group(chunks, 1, 1, 4));
    EXPECT_TRUE(natural_group(chunks, 2, 5, 3));
}

TEST(InterleavedChunksTest, LongTailedDatabaseStreamsToHighFill) {
    // Rat-shaped lengths (Table II's Ensembl Rat distribution, long
    // tail to a few thousand residues): the natural 64-wide groups of
    // the long tail fill poorly; streamed, the layout fills >= 90%.
    DatabaseSpec spec = preset_by_name("Ensembl Rat").spec(1.0, 3);
    spec.name = "rat";
    spec.num_sequences = 1000;
    const Database database = Database::generate(spec);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    for (const int lanes : {16, 32, 64}) {
        check_layout(packed, lanes);
        const InterleavedChunks& chunks = packed.interleaved(lanes);
        EXPECT_GE(layout_fill(chunks), 0.9) << "lanes " << lanes;
        EXPECT_FALSE(chunks.starts().empty()) << "lanes " << lanes;
    }
}

TEST(InterleavedChunksTest, EmptySubjectsNeverStream) {
    // Empty subjects sort last; they may head a lane but never follow
    // one (two subjects cannot start one lane at one column).
    const PackedDatabase packed = PackedDatabase::pack(
        fixed_lengths({{2, 90}, {3, 60}, {9, 20}, {4, 0}}));
    for (const int lanes : {2, 4, 16}) check_layout(packed, lanes);
}

TEST(InterleavedChunksTest, CachedPerWidthAndThreadSafe) {
    const Database database = make_db(40, 23);
    const PackedDatabase packed = PackedDatabase::pack(database.sequences());
    const InterleavedChunks* w16 = &packed.interleaved(16);
    const InterleavedChunks* w32 = &packed.interleaved(32);
    EXPECT_NE(w16, w32);
    EXPECT_EQ(w16, &packed.interleaved(16));
    EXPECT_EQ(w32, &packed.interleaved(32));

    std::vector<const InterleavedChunks*> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&packed, &seen, t] {
            seen[t] = &packed.interleaved(64);
        });
    }
    for (auto& th : threads) th.join();
    for (const InterleavedChunks* p : seen) EXPECT_EQ(p, seen[0]);
}

TEST(InterleavedChunksTest, EmptyDatabaseYieldsNoCohorts) {
    const PackedDatabase packed = PackedDatabase::pack({});
    const InterleavedChunks& chunks = packed.interleaved(16);
    EXPECT_EQ(chunks.cohort_count(), 0u);
    EXPECT_EQ(chunks.view().count, 0u);
}

}  // namespace
}  // namespace swh::db
