// Golden equivalence of the three-stage funnel scan (ungapped prefilter
// + exact rescore) against the exhaustive scan: the surviving top-k
// must be BIT-identical for every ISA level this host supports, every
// k, and the adversarial shapes that stress the threshold policy —
// all-identical scores, ties exactly at the threshold, empty and tiny
// databases, k larger than the database, a long-tailed database whose
// layout streams several subjects per lane — plus a concurrency test with
// cohort-mode claiming and a shared rising threshold, and the sweep cost
// model's two regimes (sweeps that cannot pay stop, sweeps that prune
// keep running) at one and four workers.
//
// The suite name starts with "DatabaseScanner" so the CI TSan job's
// test filter picks it up alongside the plain scanner suite.

#include "align/db_scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "db/database.hpp"
#include "db/packed.hpp"
#include "db/presets.hpp"
#include "engines/topk.hpp"
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

/// Exhaustive oracle: cohort-mode scan with the prefilter unarmed,
/// every score routed through the same TopK policy the funnel uses.
std::vector<core::Hit> exhaustive_topk(const StripedAligner& aligner,
                                       const db::Database& database,
                                       std::size_t k) {
    const db::PackedDatabase& packed = database.packed();
    DatabaseScanner scanner(
        aligner, packed.view(), DatabaseScanner::kDefaultChunk,
        packed.interleaved(lanes_u8(aligner.isa())).view());
    engines::TopK topk(k);
    ScanScratch scratch;
    EXPECT_TRUE(scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
            topk.add(idx, s);
            return true;
        }));
    return topk.take();
}

struct FunnelRun {
    std::vector<core::Hit> hits;
    ScanStats stats;
    std::uint64_t emitted = 0;
    std::uint64_t pruned_calls = 0;
    std::vector<std::uint32_t> pruned;  ///< subjects reported pruned
};

/// Funnel scan: prefilter armed with the running k-th best fed back
/// through a CAS-max, exactly like engines::CpuEngine does — `workers`
/// threads claim from the shared cursor with worker-local collectors
/// merged at the end.
FunnelRun funnel_topk(const StripedAligner& aligner,
                      const db::Database& database, std::size_t k,
                      int workers = 1) {
    const db::PackedDatabase& packed = database.packed();
    std::atomic<Score> tau{engines::TopK::kNoThreshold};
    DatabaseScanner scanner(
        aligner, packed.view(), DatabaseScanner::kDefaultChunk,
        packed.interleaved(lanes_u8(aligner.isa())).view(), &tau);
    std::vector<engines::TopK> collectors(static_cast<std::size_t>(workers),
                                          engines::TopK(k));
    std::atomic<std::uint64_t> emitted{0};
    std::vector<std::vector<std::uint32_t>> pruned(
        static_cast<std::size_t>(workers));
    const auto work = [&](int w) {
        engines::TopK& topk = collectors[static_cast<std::size_t>(w)];
        std::vector<std::uint32_t>& pruned_here =
            pruned[static_cast<std::size_t>(w)];
        ScanScratch scratch;
        EXPECT_TRUE(scanner.run_worker(
            scratch,
            [&](std::uint32_t idx, std::uint32_t, Score s) {
                topk.add(idx, s);
                emitted.fetch_add(1, std::memory_order_relaxed);
                const Score kth = topk.kth_score();
                Score cur = tau.load(std::memory_order_relaxed);
                while (kth > cur &&
                       !tau.compare_exchange_weak(
                           cur, kth, std::memory_order_relaxed)) {
                }
                return true;
            },
            [&](std::uint32_t idx, std::uint32_t) {
                pruned_here.push_back(idx);
                return true;
            }));
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
    work(0);
    for (std::thread& t : pool) t.join();

    engines::TopK merged(k);
    for (engines::TopK& c : collectors) merged.merge(std::move(c));
    FunnelRun run;
    run.hits = merged.take();
    run.stats = scanner.stats();
    run.emitted = emitted.load();
    for (const std::vector<std::uint32_t>& p : pruned) {
        run.pruned.insert(run.pruned.end(), p.begin(), p.end());
    }
    run.pruned_calls = run.pruned.size();
    return run;
}

void expect_same_hits(const std::vector<core::Hit>& got,
                      const std::vector<core::Hit>& want,
                      const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].db_index, want[i].db_index)
            << label << " rank " << i;
        EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
    }
}

/// A database whose final cohort takes the striped route with ten lanes
/// that saturate u8 against `query` (150 residues): an exact copy of
/// the query, a singleton cohort scanned first, lifts the k = 1
/// threshold far above the u8 range; 64 background subjects of one
/// length fill whole cohorts at every width; ten exact fragments of the
/// query, 70 to 95 residues long, form the final cohort — 52% filled at
/// W = 16 and less at wider W, below the 60% bar of a 150-residue
/// query. Their indices go to `fragments`.
db::Database saturated_final_cohort_db(
    const Sequence& query, std::vector<std::uint32_t>& fragments) {
    Rng rng(353);
    std::vector<Sequence> seqs;
    for (int i = 0; i < 64; ++i) {
        seqs.push_back(db::random_protein(rng, 100, "bg"));
    }
    seqs.push_back(query);
    std::uint32_t at = 0;
    for (const std::size_t len : {95, 90, 85, 80, 80, 75, 75, 70, 70, 70}) {
        at += 6;  // spread among the background
        const std::size_t off = (at * 7) % (query.size() - len + 1);
        const auto from = query.residues.begin() +
                          static_cast<std::ptrdiff_t>(off);
        seqs.insert(seqs.begin() + at,
                    Sequence{"frag" + std::to_string(at), {},
                             {from, from + static_cast<std::ptrdiff_t>(len)}});
        fragments.push_back(at);
    }
    return db::Database("saturated-tail", std::move(seqs));
}

TEST(DatabaseScannerFunnel, TopKBitIdenticalAcrossIsaLevelsAndK) {
    // Planted-family databases: background noise plus homologs of the
    // query, the shape the funnel is built for — the family feeds the
    // threshold and the background gets pruned. Query lengths
    // kFilterChunkRows and one past it put the prefilter at its tile
    // boundary: one bound tile, then the first two-tile sum. The last
    // database puts u8-saturated lanes on the striped route of a swept
    // cohort: they carry no bound, so they must survive into the exact
    // stage even where tau lies above the u8 range.
    std::uint64_t total_pruned = 0;
    const auto check = [&](const db::Database& database, const Sequence& q,
                           const std::string& name,
                           const std::vector<std::uint32_t>& unprunable) {
        for (const simd::IsaLevel isa : supported_levels()) {
            const StripedAligner aligner(q.residues, blosum(), kGap, isa);
            for (const std::size_t k : {std::size_t{1}, std::size_t{10},
                                        std::size_t{100}}) {
                const std::string label =
                    name + " isa=" + std::string(simd::to_string(isa)) +
                    " k=" + std::to_string(k);
                const std::vector<core::Hit> want =
                    exhaustive_topk(aligner, database, k);
                ASSERT_EQ(want.size(), std::min(k, database.size()));
                const FunnelRun run = funnel_topk(aligner, database, k);
                expect_same_hits(run.hits, want, label);
                // Accounting: every subject is either settled or
                // reported pruned, exactly once.
                EXPECT_EQ(run.emitted + run.pruned_calls, database.size())
                    << label;
                EXPECT_EQ(run.pruned_calls, run.stats.subjects_pruned)
                    << label;
                total_pruned += run.stats.subjects_pruned;
                for (const std::uint32_t idx : unprunable) {
                    EXPECT_EQ(std::count(run.pruned.begin(), run.pruned.end(),
                                         idx),
                              0)
                        << label << " subject " << idx;
                }
            }
        }
    };
    for (const std::size_t qlen :
         {std::size_t{100}, DatabaseScanner::kFilterChunkRows,
          DatabaseScanner::kFilterChunkRows + 1}) {
        const db::ScanSample sample = db::make_scan_sample(300, {qlen});
        check(sample.database, sample.queries[0],
              "qlen=" + std::to_string(qlen), {});
    }
    Rng rng(349);
    const Sequence q = db::random_protein(rng, 150, "q");
    std::vector<std::uint32_t> fragments;
    const db::Database tail = saturated_final_cohort_db(q, fragments);
    for (const simd::IsaLevel isa : supported_levels()) {
        // The layout's final cohort holds the ten fragments and takes
        // the striped route.
        const int w = lanes_u8(isa);
        const InterleavedCohorts view = tail.packed().interleaved(w).view();
        const CohortDesc& last = view.cohorts[view.count - 1];
        ASSERT_EQ(last.subjects, fragments.size());
        ASSERT_LT(last.residues * 100,
                  std::uint64_t{last.columns} * static_cast<std::uint64_t>(w) *
                      DatabaseScanner::min_fill_pct(q.size()));
    }
    check(tail, q, "saturated-tail", fragments);
    // The funnel must actually funnel on this workload, not just match.
    EXPECT_GT(total_pruned, 0u);
}

TEST(DatabaseScannerFunnel, LongQueryTiledRepackBitIdentical) {
    // A multi-tile query (4+ tiles of kInterseqTileRows) drives the
    // inter-sequence kernels' query tiling, and the armed prefilter's
    // surviving lanes go through the survivor re-pack instead of the
    // striped fallback. Both paths must keep the funnel's bit-identity
    // promise — and must actually be exercised, not silently skipped.
    const std::size_t qlen = 4 * kInterseqTileRows + 53;
    ASSERT_GT(interseq_tile_count(qlen), 1u);
    const db::ScanSample sample = db::make_scan_sample(300, {qlen});
    // Coverage is asserted in aggregate: at wide lane counts a 300-
    // sequence database is legitimately too ragged for the full-width
    // fill bar (all-striped is the right economic call there), but the
    // narrower levels must prove the tiled and re-pack paths ran.
    std::uint64_t tiled_cohorts = 0, repack_or_striped = 0, pruned = 0;
    for (const simd::IsaLevel isa : supported_levels()) {
        const StripedAligner aligner(sample.queries[0].residues, blosum(),
                                     kGap, isa);
        for (const std::size_t k : {std::size_t{1}, std::size_t{25}}) {
            const std::vector<core::Hit> want =
                exhaustive_topk(aligner, sample.database, k);
            ASSERT_EQ(want.size(), k);
            const FunnelRun run = funnel_topk(aligner, sample.database, k);
            expect_same_hits(run.hits, want,
                             "isa=" + std::string(simd::to_string(isa)) +
                                 " k=" + std::to_string(k));
            EXPECT_EQ(run.emitted + run.pruned_calls,
                      sample.database.size());
            EXPECT_EQ(run.pruned_calls, run.stats.subjects_pruned);
            // Every subject settles on exactly one of the three paths
            // or is pruned — no double counting, no loss.
            EXPECT_EQ(run.stats.subjects_interseq +
                          run.stats.subjects_striped +
                          run.stats.subjects_pruned,
                      sample.database.size());
            // A long query must never disable interseq by length
            // alone; with one kernel per width, every inter-sequence
            // cohort of this multi-tile query ran tiled.
            tiled_cohorts += run.stats.cohorts_interseq;
            repack_or_striped +=
                run.stats.repacks + run.stats.subjects_striped;
            pruned += run.stats.subjects_pruned;
        }
    }
    EXPECT_GT(tiled_cohorts, 0u);
    EXPECT_GT(pruned, 0u);
    // Thinned-out survivor cohorts went through the re-pack (or, for
    // sub-bar remainders, per-subject striped) instead of being masked.
    EXPECT_GT(repack_or_striped, 0u);
}

TEST(DatabaseScannerFunnel, AllIdenticalScoresKeepEveryTie) {
    // Every subject is the same sequence, so every exact score ties the
    // threshold exactly. The strict-inequality prune policy must keep
    // them all: the top-k is then decided purely by the db_index
    // tie-break, identical to the exhaustive scan.
    Rng rng(307);
    const Sequence s = db::random_protein(rng, 60, "twin");
    std::vector<Sequence> seqs(130, s);
    const db::Database database("twins", std::move(seqs));
    const Sequence q = db::random_protein(rng, 70, "q");

    for (const simd::IsaLevel isa : supported_levels()) {
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        for (const std::size_t k : {std::size_t{1}, std::size_t{10}}) {
            const std::vector<core::Hit> want =
                exhaustive_topk(aligner, database, k);
            const FunnelRun run = funnel_topk(aligner, database, k);
            expect_same_hits(run.hits, want, "twins k=" + std::to_string(k));
            // Nothing scores strictly below the threshold, so nothing
            // may be pruned.
            EXPECT_EQ(run.stats.subjects_pruned, 0u);
            EXPECT_EQ(run.emitted, database.size());
            for (std::size_t i = 0; i < run.hits.size(); ++i) {
                EXPECT_EQ(run.hits[i].db_index, i);  // index tie-break
            }
        }
    }
}

TEST(DatabaseScannerFunnel, TiesAtThresholdSurviveAmongBackground) {
    // Two planted twins tie at the exact top score over a pruned
    // background with k = 2: the second twin arrives when the
    // threshold already equals its score, so a non-strict prune would
    // drop it.
    db::DatabaseSpec spec;
    spec.name = "ties";
    spec.num_sequences = 200;
    spec.length.min_len = 30;
    spec.length.max_len = 90;
    spec.seed = 311;
    auto seqs = db::generate_database(spec);
    Rng rng(313);
    const Sequence q = db::random_protein(rng, 64, "q");
    Sequence twin = q;
    twin.id = "twin-a";
    seqs.insert(seqs.begin() + 11, twin);
    twin.id = "twin-b";
    seqs.insert(seqs.begin() + 171, twin);
    const db::Database database("ties", std::move(seqs));

    for (const simd::IsaLevel isa : supported_levels()) {
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, database, 2);
        EXPECT_EQ(want[0].score, want[1].score);
        EXPECT_EQ(want[0].db_index, 11u);
        EXPECT_EQ(want[1].db_index, 171u);
        const FunnelRun run = funnel_topk(aligner, database, 2);
        expect_same_hits(run.hits, want,
                         "isa=" + std::string(simd::to_string(isa)));
    }
}

TEST(DatabaseScannerFunnel, EmptyAndTinyDatabases) {
    Rng rng(317);
    const Sequence q = db::random_protein(rng, 50, "q");
    const StripedAligner aligner(q.residues, blosum(), kGap);

    const db::Database empty("empty", {});
    const FunnelRun none = funnel_topk(aligner, empty, 10);
    EXPECT_TRUE(none.hits.empty());
    EXPECT_EQ(none.emitted, 0u);
    EXPECT_EQ(none.pruned_calls, 0u);

    // k exceeds the database: the threshold never materializes
    // (kth_score stays kNoThreshold), so nothing may be pruned and all
    // subjects are returned.
    std::vector<Sequence> few;
    for (int i = 0; i < 5; ++i) {
        few.push_back(db::random_protein(rng, 20 + i * 13, "t"));
    }
    const db::Database tiny("tiny", std::move(few));
    const std::vector<core::Hit> want = exhaustive_topk(aligner, tiny, 100);
    EXPECT_EQ(want.size(), tiny.size());
    const FunnelRun run = funnel_topk(aligner, tiny, 100);
    expect_same_hits(run.hits, want, "tiny");
    EXPECT_EQ(run.stats.subjects_pruned, 0u);
    EXPECT_EQ(run.emitted, tiny.size());
}

TEST(DatabaseScannerFunnel, ThresholdWithoutCohortsIsInert) {
    // A threshold feed without a cohort layout cannot arm the
    // prefilter (the ungapped kernels share the cohort geometry);
    // the scan must degrade to the plain exhaustive two-pass.
    const db::ScanSample sample = db::make_scan_sample(120, {80});
    const StripedAligner aligner(sample.queries[0].residues, blosum(), kGap);
    const db::PackedDatabase& packed = sample.database.packed();
    std::atomic<Score> tau{1000000};  // would prune everything if armed
    DatabaseScanner scanner(aligner, packed.view(),
                            DatabaseScanner::kDefaultChunk, {}, &tau);
    EXPECT_FALSE(scanner.prefilter_armed());
    engines::TopK topk(10);
    ScanScratch scratch;
    std::uint64_t emitted = 0;
    EXPECT_TRUE(scanner.run_worker(
        scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
            topk.add(idx, s);
            ++emitted;
            return true;
        }));
    EXPECT_EQ(emitted, sample.database.size());
    EXPECT_EQ(scanner.stats().cohorts_filtered, 0u);
    expect_same_hits(topk.take(),
                     exhaustive_topk(aligner, sample.database, 10),
                     "inert threshold");
}

TEST(DatabaseScannerFunnel, ConcurrentWorkersBitIdentical) {
    // Four workers claim cohorts from the shared cursor and race the
    // rising threshold; per-worker collectors merge at the end. The
    // worker-local k-th best published through the shared CAS-max is a
    // sound global threshold, so the merged top-k must still be
    // bit-identical to the exhaustive oracle.
    const db::ScanSample sample = db::make_scan_sample(400, {120});
    const StripedAligner aligner(sample.queries[0].residues, blosum(), kGap);
    const std::vector<core::Hit> want =
        exhaustive_topk(aligner, sample.database, 10);

    for (int round = 0; round < 3; ++round) {
        const FunnelRun run =
            funnel_topk(aligner, sample.database, 10, /*workers=*/4);
        EXPECT_EQ(run.emitted + run.pruned_calls, sample.database.size());
        expect_same_hits(run.hits, want, "round " + std::to_string(round));
    }
}

TEST(DatabaseScannerFunnel, LongTailedStreamedLayoutBitIdentical) {
    // Rat-shaped lengths (long tail to a few thousand residues): the
    // layout streams the short subjects back to back through the long
    // cohorts' lanes, so the funnel prunes, settles and defers per
    // subject inside multi-subject lanes. Copies of the query planted
    // among them saturate u8 and feed the threshold. The top-k must
    // match the striped scan — no cohorts at all — at one and four
    // workers on every ISA.
    db::DatabaseSpec spec = db::preset_by_name("Ensembl Rat").spec(1.0, 5);
    spec.name = "rat";
    spec.num_sequences = 600;
    auto seqs = db::generate_database(spec);
    Rng rng(347);
    const Sequence q = db::random_protein(rng, 110, "q");
    for (const std::size_t at : {std::size_t{3}, std::size_t{150},
                                 std::size_t{420}, std::size_t{590}}) {
        Sequence copy = q;
        copy.id = "copy" + std::to_string(at);
        seqs.insert(seqs.begin() + static_cast<std::ptrdiff_t>(at), copy);
    }
    const db::Database database("rat", std::move(seqs));
    const db::PackedDatabase& packed = database.packed();

    std::uint64_t streamed = 0, pruned = 0;
    for (const simd::IsaLevel isa : supported_levels()) {
        const StripedAligner aligner(q.residues, blosum(), kGap, isa);
        ASSERT_FALSE(packed.interleaved(lanes_u8(isa)).starts().empty());
        for (const std::size_t k : {std::size_t{3}, std::size_t{20}}) {
            DatabaseScanner striped(aligner, packed.view());
            engines::TopK oracle(k);
            ScanScratch scratch;
            ASSERT_TRUE(striped.run_worker(
                scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
                    oracle.add(idx, s);
                    return true;
                }));
            const std::vector<core::Hit> want = oracle.take();
            expect_same_hits(exhaustive_topk(aligner, database, k), want,
                             "exhaustive isa=" +
                                 std::string(simd::to_string(isa)));
            for (const int workers : {1, 4}) {
                const std::string label =
                    "isa=" + std::string(simd::to_string(isa)) +
                    " k=" + std::to_string(k) +
                    " workers=" + std::to_string(workers);
                const FunnelRun run = funnel_topk(aligner, database, k,
                                                  workers);
                expect_same_hits(run.hits, want, label);
                EXPECT_EQ(run.emitted + run.pruned_calls, database.size())
                    << label;
                EXPECT_EQ(run.pruned_calls, run.stats.subjects_pruned)
                    << label;
                EXPECT_EQ(run.stats.subjects_interseq +
                              run.stats.subjects_striped +
                              run.stats.subjects_pruned,
                          database.size())
                    << label;
                streamed += run.stats.cohorts_streamed;
                pruned += run.stats.subjects_pruned;
            }
        }
    }
    // Both the streamed exact path and per-subject pruning ran.
    EXPECT_GT(streamed, 0u);
    EXPECT_GT(pruned, 0u);
}

// The cost model's decisions are timing-driven (measured kernel rates),
// so the two tests below assert only what holds under any timing.

TEST(DatabaseScannerFunnel, CostModelStopsSweepsThatCannotPay) {
    // Short random queries against a random background: with k = 10
    // the threshold stays at random-score level, so the chain bound
    // leaves far more than a quarter of every inter-sequence cohort
    // alive and a sweep saves exactly nothing, whatever the measured
    // rates. The worker must stop sweeping — probing with an
    // exponential backoff — and the top-k must stay bit-identical. (Below ~60
    // residues the 10th-best score of 3000 subjects already sits high
    // enough over the bounds that the sweep prunes most lanes and
    // rightly keeps running.)
    db::DatabaseSpec spec;
    spec.name = "background";
    spec.num_sequences = 3000;
    spec.length.min_len = 40;
    spec.length.max_len = 90;
    spec.seed = 331;
    const db::Database database = db::Database::generate(spec);
    Rng rng(337);
    std::vector<Sequence> queries;
    for (const std::size_t len :
         {std::size_t{90}, std::size_t{120}, std::size_t{200}}) {
        queries.push_back(db::random_protein(rng, len, "q"));
    }
    for (const simd::IsaLevel isa : supported_levels()) {
        for (const Sequence& q : queries) {
            const StripedAligner aligner(q.residues, blosum(), kGap, isa);
            const std::vector<core::Hit> want =
                exhaustive_topk(aligner, database, 10);
            for (const int workers : {1, 4}) {
                const std::string label =
                    "isa=" + std::string(simd::to_string(isa)) +
                    " qlen=" + std::to_string(q.size()) +
                    " workers=" + std::to_string(workers);
                const FunnelRun run =
                    funnel_topk(aligner, database, 10, workers);
                expect_same_hits(run.hits, want, label);
                EXPECT_EQ(run.emitted + run.pruned_calls, database.size())
                    << label;
                const std::uint64_t eligible =
                    run.stats.cohorts_filtered + run.stats.filter_offs;
                EXPECT_GT(run.stats.filter_offs, 0u) << label;
                EXPECT_LT(2 * run.stats.cohorts_filtered, eligible)
                    << label;
            }
        }
    }
}

TEST(DatabaseScannerFunnel, CostModelKeepsSweepsThatPrune) {
    // Planted family: tau reaches homolog level after the first primed
    // cohort, so the sweep prunes the background and keeps running.
    // One worker is deterministic up to the first sweep (an unmeasured
    // model always sweeps, and that sweep prunes); four workers race
    // for the family cohort, so their pruning is asserted in aggregate.
    const db::ScanSample sample = db::make_scan_sample(2000, {100});
    std::uint64_t pruned4 = 0;
    for (const simd::IsaLevel isa : supported_levels()) {
        const StripedAligner aligner(sample.queries[0].residues, blosum(),
                                     kGap, isa);
        const std::vector<core::Hit> want =
            exhaustive_topk(aligner, sample.database, 10);
        for (const int workers : {1, 4}) {
            const std::string label =
                "isa=" + std::string(simd::to_string(isa)) +
                " workers=" + std::to_string(workers);
            const FunnelRun run =
                funnel_topk(aligner, sample.database, 10, workers);
            expect_same_hits(run.hits, want, label);
            EXPECT_EQ(run.pruned_calls, run.stats.subjects_pruned) << label;
            if (workers == 1) {
                EXPECT_GT(run.stats.subjects_pruned, 0u) << label;
            } else {
                pruned4 += run.stats.subjects_pruned;
            }
        }
    }
    EXPECT_GT(pruned4, 0u);
}

}  // namespace
}  // namespace swh::align
