#include "engines/cpu_engine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include <atomic>
#include <string>
#include <vector>

#include "align/sw_scalar.hpp"
#include "db/database.hpp"
#include "db/presets.hpp"
#include "obs/trace.hpp"

namespace swh::engines {
namespace {

const align::ScoreMatrix& blosum() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

EngineConfig config(std::uint64_t grain = 1'000'000) {
    EngineConfig c;
    c.matrix = &blosum();
    c.gap = {10, 2};
    c.top_k = 5;
    c.isa = simd::best_supported();
    c.progress_grain = grain;
    return c;
}

db::Database small_db(std::size_t n = 40, std::uint64_t seed = 1) {
    db::DatabaseSpec spec;
    spec.name = "test";
    spec.num_sequences = n;
    spec.length.min_len = 20;
    spec.length.max_len = 200;
    spec.seed = seed;
    return db::Database::generate(spec);
}

align::Sequence query(std::size_t len = 80, std::uint64_t seed = 2) {
    Rng rng(seed);
    return db::random_protein(rng, len, "q");
}

TEST(CpuEngine, ScoresMatchOracle) {
    CpuEngine engine(config());
    const db::Database database = small_db();
    const align::Sequence q = query();
    const core::TaskResult r = engine.execute(q, 0, 0, database, nullptr);
    EXPECT_EQ(r.cells, q.size() * database.residues());
    ASSERT_EQ(r.hits.size(), 5u);
    // Every reported hit must carry the exact oracle score.
    for (const core::Hit& h : r.hits) {
        EXPECT_EQ(h.score,
                  align::sw_score_affine(q.residues,
                                         database[h.db_index].residues,
                                         blosum(), {10, 2}));
    }
    // Hits are the true top-5: no other subject scores above the last.
    for (std::size_t i = 0; i < database.size(); ++i) {
        const align::Score s = align::sw_score_affine(
            q.residues, database[i].residues, blosum(), {10, 2});
        bool in_hits = false;
        for (const core::Hit& h : r.hits) in_hits |= (h.db_index == i);
        if (!in_hits) {
            EXPECT_LE(s, r.hits.back().score);
        }
    }
}

TEST(CpuEngine, MultiThreadMatchesSingleThread) {
    const db::Database database = small_db(60, 5);
    const align::Sequence q = query(120, 6);
    CpuEngine one(config(), 1);
    CpuEngine four(config(), 4);
    const auto r1 = one.execute(q, 0, 0, database, nullptr);
    const auto r4 = four.execute(q, 0, 0, database, nullptr);
    EXPECT_EQ(r1.cells, r4.cells);
    ASSERT_EQ(r1.hits.size(), r4.hits.size());
    for (std::size_t i = 0; i < r1.hits.size(); ++i) {
        EXPECT_EQ(r1.hits[i], r4.hits[i]);
    }
}

TEST(CpuEngine, PrefilterOnAndOffReturnIdenticalHits) {
    // The funnel's whole contract at engine level: arming the ungapped
    // prefilter changes how much exact work runs, never the hits. Use a
    // planted-family sample so the prefilter genuinely prunes, and both
    // thread counts so the racing threshold is covered too.
    const db::ScanSample sample = db::make_scan_sample(250, {90});
    EngineConfig on = config();
    EngineConfig off = config();
    off.prefilter = false;
    for (const unsigned threads : {1u, 4u}) {
        const auto with = CpuEngine(on, threads)
                              .execute(sample.queries[0], 0, 0,
                                       sample.database, nullptr);
        const auto without = CpuEngine(off, threads)
                                 .execute(sample.queries[0], 0, 0,
                                          sample.database, nullptr);
        ASSERT_EQ(with.hits.size(), without.hits.size());
        for (std::size_t i = 0; i < with.hits.size(); ++i) {
            EXPECT_EQ(with.hits[i], without.hits[i])
                << "threads=" << threads << " rank " << i;
        }
        // Pruned subjects still count their cells, so progress totals
        // and the result's cell count stay the full product.
        EXPECT_EQ(with.cells, without.cells);
    }
}

class CountingObserver final : public ExecutionObserver {
public:
    void on_cells(std::uint64_t delta) override {
        cells_ += delta;
        ++calls_;
    }
    std::uint64_t cells() const { return cells_; }
    int calls() const { return calls_; }

private:
    std::uint64_t cells_ = 0;
    int calls_ = 0;
};

TEST(CpuEngine, ReportsAllCellsThroughObserver) {
    CpuEngine engine(config(/*grain=*/50'000));
    const db::Database database = small_db();
    const align::Sequence q = query();
    CountingObserver obs;
    const auto r = engine.execute(q, 0, 0, database, &obs);
    EXPECT_EQ(obs.cells(), r.cells);
    EXPECT_GT(obs.calls(), 1);  // grain forces multiple notifications
}

class CancelAfter final : public ExecutionObserver {
public:
    explicit CancelAfter(int limit) : limit_(limit) {}
    bool cancelled() const override { return polls_.fetch_add(1) >= limit_; }

private:
    mutable std::atomic<int> polls_{0};
    int limit_;
};

TEST(CpuEngine, CancellationStopsEarly) {
    CpuEngine engine(config());
    const db::Database database = small_db(100, 7);
    const align::Sequence q = query();
    CancelAfter obs(10);
    const auto r = engine.execute(q, 0, 0, database, &obs);
    EXPECT_LT(r.cells, q.size() * database.residues());
}

class TracingObserver final : public ExecutionObserver {
public:
    explicit TracingObserver(obs::TraceLane& lane) : lane_(&lane) {}
    obs::TraceLane* trace_lane() const override { return lane_; }

private:
    obs::TraceLane* lane_;
};

/// Names of the span events one task emits on the slave's trace lane.
std::vector<std::string> span_events(const EngineConfig& c,
                                     const db::Database& database) {
    obs::TraceRecorder recorder;
    TracingObserver observer(recorder.lane("sse0"));
    CpuEngine(c).execute(query(), 0, 3, database, &observer);
    const obs::Trace trace = recorder.drain();
    std::vector<std::string> names;
    for (const obs::TraceEvent& e : trace.lanes.at(0).events) {
        if (e.kind == obs::EventKind::SpanBegin ||
            e.kind == obs::EventKind::SpanEnd) {
            EXPECT_EQ(e.task, 3u);
            names.emplace_back(e.name);
        }
    }
    return names;
}

TEST(CpuEngine, KernelSpanNamesTheScanMode) {
    const db::Database database = small_db();
    // Cohort layout attached: the scan runs the inter-sequence kernels.
    EXPECT_EQ(span_events(config(), database),
              (std::vector<std::string>{"kernel:cpu-interseq",
                                        "kernel:cpu-interseq"}));
    EngineConfig striped = config();
    striped.interseq = false;
    EXPECT_EQ(span_events(striped, database),
              (std::vector<std::string>{"kernel:cpu-striped",
                                        "kernel:cpu-striped"}));
}

TEST(CpuEngine, TopKSmallerThanDatabase) {
    EngineConfig c = config();
    c.top_k = 1000;  // more than sequences available
    CpuEngine engine(c);
    const db::Database database = small_db(10, 9);
    const auto r = engine.execute(query(), 0, 0, database, nullptr);
    EXPECT_EQ(r.hits.size(), 10u);
}

TEST(CpuEngine, PropagatesTaskIdentity) {
    CpuEngine engine(config());
    const db::Database database = small_db(5, 11);
    const auto r = engine.execute(query(), 7, 42, database, nullptr);
    EXPECT_EQ(r.query_index, 7u);
    EXPECT_EQ(r.task, 42u);
}

TEST(CpuEngine, RequiresMatrix) {
    EngineConfig c;
    c.matrix = nullptr;
    EXPECT_THROW(CpuEngine{c}, ContractError);
}

}  // namespace
}  // namespace swh::engines
