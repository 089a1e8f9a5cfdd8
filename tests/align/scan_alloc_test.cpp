// Steady-state allocation audit for the scan hot path. This test binary
// replaces the global allocation functions with counting versions
// (which is why it is its own test target): once a worker's ScanScratch
// has warmed up to the largest subject, StripedAligner::score() and the
// DatabaseScanner two-pass loop must not touch the heap at all, and a
// CpuEngine's second task must not allocate kernel buffers again.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "align/db_scan.hpp"
#include "align/striped.hpp"
#include "db/database.hpp"
#include "db/packed.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/topk.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
/// Over-aligned allocations only: ScanScratch's kernel buffers and the
/// packed database arenas are the program's only ones.
std::atomic<std::uint64_t> g_aligned_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 16); }
void* operator new[](std::size_t size) { return counted_alloc(size, 16); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_aligned_allocs.fetch_add(1, std::memory_order_relaxed);
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    g_aligned_allocs.fetch_add(1, std::memory_order_relaxed);
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace swh::align {
namespace {

db::Database alloc_test_db() {
    db::DatabaseSpec spec;
    spec.name = "alloc";
    spec.num_sequences = 50;
    spec.length.min_len = 20;
    spec.length.max_len = 400;
    spec.seed = 51;
    return db::Database::generate(spec);
}

/// Length-adjacent subjects: they fill full-width cohorts at every ISA
/// level, so a cohort-mode scan runs the inter-sequence kernel rather
/// than the striped fallback.
db::Database cohort_test_db() {
    db::DatabaseSpec spec;
    spec.name = "alloc-cohorts";
    spec.num_sequences = 256;
    spec.length.min_len = 90;
    spec.length.max_len = 130;
    spec.seed = 55;
    return db::Database::generate(spec);
}

/// Long-tailed lengths (Table II's Ensembl Rat shape): the layout
/// streams several subjects through one lane of the long cohorts.
db::Database streamed_test_db() {
    db::DatabaseSpec spec = db::preset_by_name("Ensembl Rat").spec(1.0, 56);
    spec.name = "alloc-streamed";
    spec.num_sequences = 600;
    return db::Database::generate(spec);
}

TEST(ScanAllocation, ScoreIsAllocationFreeInSteadyState) {
    const db::Database database = alloc_test_db();
    Rng rng(52);
    const Sequence q = db::random_protein(rng, 200, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    const StripedAligner aligner(q.residues, matrix, {10, 2});

    // Warm-up pass grows the thread-local scratch to the largest subject.
    Score warm = 0;
    for (const auto& s : database.sequences()) {
        warm = std::max(warm, aligner.score(s.residues));
    }

    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    Score best = 0;
    for (int rep = 0; rep < 3; ++rep) {
        for (const auto& s : database.sequences()) {
            best = std::max(best, aligner.score(s.residues));
        }
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "score() allocated in steady state";
    EXPECT_EQ(best, warm);
}

TEST(ScanAllocation, ScannerPass1IsAllocationFreeAfterWarmup) {
    const db::Database database = alloc_test_db();
    Rng rng(53);
    const Sequence q = db::random_protein(rng, 120, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    const StripedAligner aligner(q.residues, matrix, {10, 2});
    const db::PackedDatabase& packed = database.packed();

    DatabaseScanner scanner(aligner, packed.view());
    ScanScratch scratch;
    // Warm-up: run one full scan (grows scratch + overflow vector).
    scanner.run_worker(scratch,
                       [](std::uint32_t, std::uint32_t, Score) { return true; });

    // Steady state: per-subject scoring through a warm scratch must not
    // allocate. (The scanner's per-call overflow list is the only
    // remaining allocation site and stays empty for this query.)
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    Score best = 0;
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const StripedResult r =
            aligner.score_u8(packed.subject(i), scratch, /*trusted=*/true);
        ASSERT_FALSE(r.overflow);
        best = std::max(best, r.score);
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "pass-1 scan allocated in steady state";
    EXPECT_GT(best, 0);
}

TEST(ScanAllocation, TopKAddNeverAllocates) {
    // The collector reserves its full trim window (2k + 16) up front,
    // so the per-subject add() path never grows the vector — trims
    // shrink it back before capacity is reached.
    engines::TopK topk(10);
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < 10'000; ++i) {
        topk.add(i, static_cast<Score>(i % 997));
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "TopK::add allocated";
}

TEST(ScanAllocation, EnginePathIsAllocationFreeAfterWarmup) {
    // The engine's per-subject path — cohort-mode scanner emit into a
    // TopK collector — end to end, including the inter-sequence kernel
    // through a warm scratch: a single-tile query, and a multi-tile one
    // whose carried column state must live in the warm scratch too; on
    // one-subject-per-lane cohorts and on a streamed layout, whose
    // per-subject results live in the warm scratch as well.
    for (const bool streamed : {false, true}) {
        const db::Database database =
            streamed ? streamed_test_db() : cohort_test_db();
        const db::PackedDatabase& packed = database.packed();
        for (const std::size_t qlen : {std::size_t{150},
                                       2 * kInterseqTileRows + 1}) {
            Rng rng(54);
            const Sequence q = db::random_protein(rng, qlen, "q");
            const ScoreMatrix matrix = ScoreMatrix::blosum62();
            const StripedAligner aligner(q.residues, matrix, {10, 2});
            const std::string label =
                "qlen=" + std::to_string(qlen) + " db=" + database.name();

            const db::InterleavedChunks& chunks =
                packed.interleaved(lanes_u8(aligner.isa()));
            ASSERT_EQ(chunks.starts().empty(), !streamed) << label;
            DatabaseScanner scanner(aligner, packed.view(),
                                    DatabaseScanner::kDefaultChunk,
                                    chunks.view());
            ASSERT_TRUE(scanner.cohort_mode());
            ScanScratch scratch;
            engines::TopK topk(10);
            // Warm-up scan grows the scratch to the largest cohort.
            scanner.run_worker(scratch,
                               [&](std::uint32_t idx, std::uint32_t, Score s) {
                                   topk.add(idx, s);
                                   return true;
                               });
            const ScanStats ds = scanner.stats();
            ASSERT_GT(ds.cohorts_interseq, 0u) << label;
            ASSERT_EQ(ds.cohorts_streamed > 0, streamed) << label;

            scanner.reset();
            const std::uint64_t before =
                g_allocs.load(std::memory_order_relaxed);
            std::size_t emitted = 0;
            const bool completed = scanner.run_worker(
                scratch, [&](std::uint32_t idx, std::uint32_t, Score s) {
                    topk.add(idx, s);
                    ++emitted;
                    return true;
                });
            const std::uint64_t after =
                g_allocs.load(std::memory_order_relaxed);
            EXPECT_TRUE(completed) << label;
            EXPECT_EQ(emitted, database.size()) << label;
            EXPECT_EQ(after, before)
                << "engine scan path allocated in steady state, " << label;
        }
    }
}

TEST(ScanAllocation, EngineKeepsWorkerScratchAcrossTasks) {
    // CpuEngine keeps one ScanScratch per worker across tasks: once the
    // first task has grown it (and built the database's packed arena
    // and cohort layout, both cached), a second task of the same shape
    // makes no over-aligned allocation — no kernel buffer, column carry
    // or per-subject result buffer. The query spans several kernel
    // tiles so the column carry is in play; one worker and no
    // prefilter keep the two tasks' scan paths identical.
    const db::Database database = streamed_test_db();
    Rng rng(57);
    const Sequence q = db::random_protein(rng, 2 * kInterseqTileRows + 1, "q");
    const ScoreMatrix matrix = ScoreMatrix::blosum62();
    engines::EngineConfig config;
    config.matrix = &matrix;
    config.gap = {10, 2};
    config.isa = simd::best_supported();
    config.prefilter = false;
    engines::CpuEngine engine(config);

    const std::uint64_t cold = g_aligned_allocs.load();
    const core::TaskResult first = engine.execute(q, 0, 0, database, nullptr);
    const std::uint64_t warm = g_aligned_allocs.load();
    const core::TaskResult second = engine.execute(q, 0, 1, database, nullptr);
    const std::uint64_t after = g_aligned_allocs.load();
    EXPECT_GT(warm, cold) << "first task built no scratch or layout";
    EXPECT_EQ(after, warm) << "second task re-allocated kernel buffers";
    EXPECT_EQ(second.hits, first.hits);
}

}  // namespace
}  // namespace swh::align
