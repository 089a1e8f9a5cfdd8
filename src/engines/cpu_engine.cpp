#include "engines/cpu_engine.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "align/db_scan.hpp"
#include "align/striped.hpp"
#include "db/packed.hpp"
#include "engines/topk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace swh::engines {

void export_scan_stats(const align::ScanStats& s,
                       obs::MetricsRegistry& metrics) {
    metrics.counter("engine.cpu.subjects_interseq").add(s.subjects_interseq);
    metrics.counter("engine.cpu.subjects_striped").add(s.subjects_striped);
    // Route breakdown: why each cohort took the path it did —
    // interseq, streamed (several subjects in a lane; a subset of
    // cohorts_interseq), striped-head (fill below the dispatch bar).
    metrics.counter("scan.dispatch.cohorts_interseq").add(s.cohorts_interseq);
    metrics.counter("scan.dispatch.cohorts_streamed").add(s.cohorts_streamed);
    metrics.counter("scan.dispatch.cohorts_striped_head")
        .add(s.cohorts_striped);
    metrics.counter("scan.dispatch.repacks").add(s.repacks);
    metrics.counter("scan.dispatch.escalations16").add(s.escalations16);
    metrics.counter("engine.cpu.filter.cohorts").add(s.cohorts_filtered);
    metrics.counter("engine.cpu.filter.pruned").add(s.subjects_pruned);
    metrics.counter("engine.cpu.filter.offs").add(s.filter_offs);
    metrics.counter("engine.cpu.filter.lanes").add(s.lanes_filtered);
}

CpuEngine::CpuEngine(EngineConfig config, unsigned threads)
    : config_(config), threads_(threads) {
    SWH_REQUIRE(config_.matrix != nullptr, "engine needs a score matrix");
    SWH_REQUIRE(threads_ >= 1, "engine needs at least one thread");
    SWH_REQUIRE(simd::is_supported(config_.isa),
                "requested ISA not supported on this machine");
    scratch_.resize(threads_);
}

core::TaskResult CpuEngine::execute(const align::Sequence& query,
                                    std::uint32_t query_index,
                                    core::TaskId task,
                                    const db::Database& database,
                                    ExecutionObserver* observer) {
    const align::StripedAligner aligner(query.residues, *config_.matrix,
                                        config_.gap, config_.isa);
    // Packed arena: built once per database (cached inside it), scanned
    // by every task against that database. When the matrix admits the
    // inter-sequence kernels, also attach the lane-interleaved cohort
    // layout (likewise cached per width) so the scanner can dispatch
    // short/medium-cohort work to the W-subjects-at-once kernel.
    const db::PackedDatabase& packed = database.packed();
    align::InterleavedCohorts cohorts;
    if (config_.interseq && aligner.interseq() != nullptr) {
        cohorts = packed.interleaved(align::lanes_u8(config_.isa)).view();
    }
    // The span names the scan mode: cohort-mode scans run the
    // inter-sequence kernels (striped only for low-fill cohorts).
    const char* const span = cohorts.count > 0 ? "kernel:cpu-interseq"
                                               : "kernel:cpu-striped";
    obs::TraceLane* lane =
        observer != nullptr ? observer->trace_lane() : nullptr;
    if (lane != nullptr) lane->span_begin(span, task);
    // Threshold feed for the scanner's ungapped prefilter: the running
    // k-th best exact score across all workers, raised monotonically
    // (CAS-max) as hits accumulate. A stale (lower) read only prunes
    // less, so relaxed ordering is enough.
    std::atomic<align::Score> tau{TopK::kNoThreshold};
    align::DatabaseScanner scanner(aligner, packed.view(),
                                   align::DatabaseScanner::kDefaultChunk,
                                   cohorts,
                                   config_.prefilter ? &tau : nullptr);
    // Live τ exposition for the watch dashboard: resolved once here,
    // stored (one relaxed atomic) only when a worker actually raises
    // the threshold. Lags the true max by at most one racing raise —
    // fine for a last-write-wins gauge.
    obs::Gauge* const tau_gauge =
        config_.prefilter && config_.metrics != nullptr
            ? &config_.metrics->gauge("engine.cpu.filter.tau")
            : nullptr;
    const std::uint64_t qlen = query.size();

    core::TaskResult result;
    result.task = task;
    result.query_index = query_index;

    std::atomic<std::uint64_t> pending_cells{0};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> cells_done{0};

    std::vector<TopK> collectors(threads_, TopK(config_.top_k));

    // Workers pull chunks of subjects from the scanner's shared cursor
    // and run the funnel scan, each through its own warm scratch.
    auto worker = [&](unsigned wid) {
        align::ScanScratch& scratch = scratch_[wid];
        std::uint64_t local_pending = 0;
        // Progress/cancellation bookkeeping shared by the emit and
        // pruned paths: pruned subjects count their cells too, so
        // result.cells stays the full qlen x db_residues product.
        auto account = [&](std::uint64_t cells) {
            cells_done.fetch_add(cells, std::memory_order_relaxed);
            local_pending += cells;

            if (wid == 0) {
                // Only the calling thread talks to the observer (its
                // on_cells need not be thread-safe); cancelled() is
                // polled from all workers and must be.
                const std::uint64_t others =
                    pending_cells.exchange(0, std::memory_order_relaxed);
                local_pending += others;
                if (local_pending >= config_.progress_grain) {
                    if (observer != nullptr) {
                        observer->on_cells(local_pending);
                    }
                    local_pending = 0;
                }
            } else if (local_pending >= config_.progress_grain) {
                pending_cells.fetch_add(local_pending,
                                        std::memory_order_relaxed);
                local_pending = 0;
            }
            if (observer != nullptr && observer->cancelled()) {
                stop.store(true, std::memory_order_relaxed);
                return false;
            }
            return true;
        };
        scanner.run_worker(
            scratch,
            [&](std::uint32_t idx, std::uint32_t len, align::Score score) {
                if (stop.load(std::memory_order_relaxed)) return false;
                collectors[wid].add(idx, score);
                if (config_.prefilter) {
                    // A worker-local k-th best is a sound global
                    // threshold: its k hits are merged at the end, so a
                    // subject provably below them is below the final
                    // k-th too.
                    const align::Score kth = collectors[wid].kth_score();
                    align::Score cur = tau.load(std::memory_order_relaxed);
                    while (kth > cur &&
                           !tau.compare_exchange_weak(
                               cur, kth, std::memory_order_relaxed)) {
                    }
                    // cur still holds the pre-CAS value: kth > cur
                    // means this worker raised τ.
                    if (tau_gauge != nullptr && kth > cur) {
                        tau_gauge->set(static_cast<double>(kth));
                    }
                }
                return account(qlen * len);
            },
            [&](std::uint32_t, std::uint32_t len) {
                if (stop.load(std::memory_order_relaxed)) return false;
                return account(qlen * len);
            });
        if (wid != 0 && local_pending > 0) {
            pending_cells.fetch_add(local_pending, std::memory_order_relaxed);
        } else if (wid == 0 && local_pending > 0) {
            if (observer != nullptr) observer->on_cells(local_pending);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads_ - 1);
    for (unsigned w = 1; w < threads_; ++w) pool.emplace_back(worker, w);
    worker(0);
    for (std::thread& t : pool) t.join();

    // Flush progress produced by workers after thread 0 finished.
    const std::uint64_t tail = pending_cells.exchange(0);
    if (tail > 0 && observer != nullptr) observer->on_cells(tail);

    TopK merged(config_.top_k);
    for (TopK& c : collectors) merged.merge(std::move(c));
    result.hits = merged.take();
    result.cells = cells_done.load();

    if (config_.metrics != nullptr) {
        // The aligner is per-task, so its counters are exactly this
        // task's escalation profile.
        const align::StripedAligner::Stats st = aligner.stats();
        config_.metrics->counter("engine.cpu.runs8").add(st.runs8);
        config_.metrics->counter("engine.cpu.runs16").add(st.runs16);
        config_.metrics->counter("engine.cpu.runs32").add(st.runs32);
        export_scan_stats(scanner.stats(), *config_.metrics);
    }
    if (lane != nullptr) {
        lane->span_end(span, task,
                       stop.load(std::memory_order_relaxed) ? 1.0 : 0.0);
    }
    return result;
}

}  // namespace swh::engines
