#pragma once

// One whole search, timed call by call from outside the library: the
// same public call sequence as examples/swhybrid_search.cpp, from the
// FASTA files on disk to the hits TSV. A traced search additionally
// attaches the runtime's TraceRecorder and MetricsRegistry and wraps
// every slave's engine in a timing decorator.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "align/score_matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/hybrid_runtime.hpp"
#include "workloads.hpp"

namespace swhbench {

/// Search settings shared by every workload; they are the
/// swhybrid_search defaults, so the CLI parity check compares like
/// with like.
inline constexpr std::size_t kTopK = 5;
inline constexpr double kMaxEvalue = 10.0;
inline constexpr swh::align::GapPenalty kGap{10, 2};
const swh::align::ScoreMatrix& search_matrix();  ///< BLOSUM62

/// One ComputeEngine::execute call as seen by the engine decorator.
struct ExecSample {
    double start_s = 0.0;  ///< since Tracing::epoch
    double end_s = 0.0;
    std::uint64_t cells = 0;
};

/// What a traced search attaches. Use a fresh one per search.
struct Tracing {
    Tracing();

    swh::obs::TraceRecorder recorder;
    swh::obs::MetricsRegistry metrics;
    std::chrono::steady_clock::time_point epoch;
    /// execs[pe]: that slave's execute calls, in order.
    std::vector<std::vector<ExecSample>> execs;
    /// recorder.now_s() when run() returned (the trace's end of run).
    double run_end_trace_s = 0.0;
};

/// Wall-clock seconds of each stage of one search.
struct StageTimes {
    double read_s = 0.0;        ///< query parse + cold index + db read
    double pack_s = 0.0;        ///< Database::packed()
    double interleave_s = 0.0;  ///< PackedDatabase::interleaved()
    /// Socket only: accept + handshake inside RemoteMaster::run(),
    /// i.e. the run() call minus the master loop's own clock.
    double handshake_s = 0.0;
    double search_s = 0.0;  ///< run() call (minus handshake_s)
    double gumbel_s = 0.0;  ///< align::fit_gumbel
    double write_s = 0.0;   ///< E-values + hits TSV
    double wall_s = 0.0;    ///< first read → TSV closed
    double cpu_s = 0.0;     ///< process user+sys CPU over wall_s

    double setup_s() const {
        return read_s + pack_s + interleave_s + handshake_s;
    }
    double output_s() const { return gumbel_s + write_s; }
};

struct SearchResult {
    StageTimes t;
    swh::runtime::RunReport report;
    std::size_t db_sequences = 0;
    std::uint64_t cells = 0;  ///< Σ query length × database residues
    double gcups() const {
        return static_cast<double>(cells) / t.search_s / 1e9;
    }
};

/// Runs one search of `dir`'s FASTA files through `transport` and
/// writes the hits to `tsv_path`. The database's index sidecar is
/// deleted first, so every search builds it (cold).
SearchResult run_search(Transport transport, const std::string& dir,
                        const std::string& tsv_path, Tracing* tracing);

/// Set-up alone (read + pack + interleave, no handshake), for extra
/// samples of setup_s. Returns its wall seconds.
double run_setup_only(const std::string& dir);

/// Process user+sys CPU seconds so far.
double cpu_seconds();

/// Resident-set high-water mark of the process so far, in MB.
double peak_rss_mb();

}  // namespace swhbench
