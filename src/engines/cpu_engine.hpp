#pragma once

#include <vector>

#include "align/striped.hpp"
#include "engines/engine.hpp"

namespace swh::engines {

/// The paper's "adapted Farrar" SSE slave (SS IV-C): scans the packed
/// database arena (db::PackedDatabase) through align::DatabaseScanner's
/// three-stage funnel — an ungapped prefilter prunes subjects provably
/// outside the running top-k (EngineConfig::prefilter), the 8-bit exact
/// kernels settle the survivors, and the deferred overflow batch is
/// rescored at 16/32 bits. `threads` > 1 splits the database across
/// internal worker threads claiming DatabaseScanner::kDefaultChunk
/// subjects per atomic op (a whole multicore presented as one PE); the
/// paper's setup registers each core as its own single-threaded slave.
class CpuEngine final : public ComputeEngine {
public:
    CpuEngine(EngineConfig config, unsigned threads = 1);

    std::string_view name() const override { return "cpu-striped"; }
    core::PeKind kind() const override { return core::PeKind::SseCore; }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             ExecutionObserver* observer) override;

    const EngineConfig& config() const { return config_; }
    unsigned threads() const { return threads_; }

private:
    EngineConfig config_;
    unsigned threads_;
    /// One scan scratch per worker, kept across tasks so a task no
    /// larger than an earlier one allocates no kernel buffers. Safe
    /// because execute() runs on the one slave thread that owns the
    /// engine, never concurrently with itself.
    std::vector<align::ScanScratch> scratch_;
};

}  // namespace swh::engines
