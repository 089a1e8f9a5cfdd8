#include "pipeline.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "align/evalue.hpp"
#include "align/striped.hpp"
#include "core/policy.hpp"
#include "db/database.hpp"
#include "engines/cpu_engine.hpp"
#include "io/fasta.hpp"
#include "io/indexed.hpp"
#include "runtime/remote.hpp"
#include "simd/arch.hpp"
#include "util/error.hpp"
#include "util/str.hpp"
#include "util/timer.hpp"

namespace swhbench {

using namespace swh;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point epoch) {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Engine decorator: times each execute() call from outside the engine
/// and records it into the owning Tracing (one sink per slave, written
/// only by that slave's thread, read after the run has joined it).
class TimedEngine final : public engines::ComputeEngine {
public:
    TimedEngine(std::unique_ptr<engines::ComputeEngine> inner,
                std::vector<ExecSample>& sink, Clock::time_point epoch)
        : inner_(std::move(inner)), sink_(sink), epoch_(epoch) {}

    std::string_view name() const override { return inner_->name(); }
    core::PeKind kind() const override { return inner_->kind(); }

    core::TaskResult execute(const align::Sequence& query,
                             std::uint32_t query_index, core::TaskId task,
                             const db::Database& database,
                             engines::ExecutionObserver* observer) override {
        ExecSample s;
        s.start_s = since(epoch_);
        core::TaskResult r =
            inner_->execute(query, query_index, task, database, observer);
        s.end_s = since(epoch_);
        s.cells = r.cells;
        sink_.push_back(s);
        return r;
    }

private:
    std::unique_ptr<engines::ComputeEngine> inner_;
    std::vector<ExecSample>& sink_;
    Clock::time_point epoch_;
};

engines::EngineConfig engine_config(Tracing* tracing) {
    engines::EngineConfig config;
    config.matrix = &search_matrix();
    config.gap = kGap;
    config.top_k = kTopK;
    config.isa = simd::best_supported();
    if (tracing != nullptr) config.metrics = &tracing->metrics;
    return config;
}

std::unique_ptr<engines::ComputeEngine> make_engine(
    const engines::EngineConfig& config, Tracing* tracing, std::size_t pe) {
    std::unique_ptr<engines::ComputeEngine> engine =
        std::make_unique<engines::CpuEngine>(config);
    if (tracing == nullptr) return engine;
    return std::make_unique<TimedEngine>(std::move(engine),
                                         tracing->execs[pe], tracing->epoch);
}

struct Loaded {
    std::vector<align::Sequence> queries;
    db::Database database;
};

/// Read + pack + interleave, each timed into `t`.
Loaded load(const std::string& dir, StageTimes& t) {
    const align::Alphabet& aa = align::Alphabet::protein();
    const std::string db_path = database_path(dir);
    // Cold sidecar: IndexedFastaReader builds and saves it again.
    std::remove(io::index_path_for(db_path).c_str());

    Timer clock;
    Loaded in;
    in.queries = io::read_fasta_file(queries_path(dir), aa);
    SWH_REQUIRE(!in.queries.empty(), "query file has no sequences");
    const io::IndexedFastaReader reader(db_path, aa);
    in.database = db::Database(db_path, reader.slice(0, reader.size()));
    SWH_REQUIRE(in.database.size() > 0, "database has no sequences");
    t.read_s = clock.seconds();

    clock.reset();
    const db::PackedDatabase& packed = in.database.packed();
    t.pack_s = clock.seconds();

    clock.reset();
    packed.interleaved(align::lanes_u8(simd::best_supported()));
    t.interleave_s = clock.seconds();
    return in;
}

runtime::RuntimeOptions runtime_options(Tracing* tracing) {
    runtime::RuntimeOptions options;
    options.top_k = kTopK;
    options.sched.workload_adjust = true;
    if (tracing != nullptr) {
        options.trace = &tracing->recorder;
        options.metrics = &tracing->metrics;
    }
    return options;
}

runtime::RunReport run_in_process(const Loaded& in, Tracing* tracing,
                                  StageTimes& t) {
    const engines::EngineConfig config = engine_config(tracing);
    std::vector<runtime::SlaveSpec> slaves;
    for (std::size_t i = 0; i < kSlaves; ++i) {
        slaves.push_back(runtime::SlaveSpec{
            "sse" + std::to_string(i), make_engine(config, tracing, i)});
    }
    runtime::HybridRuntime rt(in.database, in.queries,
                              runtime_options(tracing));
    Timer clock;
    runtime::RunReport report = rt.run(std::move(slaves), core::make_pss());
    t.search_s = clock.seconds();
    return report;
}

runtime::RunReport run_socket(const Loaded& in, Tracing* tracing,
                              StageTimes& t) {
    const engines::EngineConfig config = engine_config(tracing);
    runtime::RemoteMasterOptions mopts;
    mopts.runtime = runtime_options(tracing);
    mopts.expect_slaves = kSlaves;
    runtime::RemoteMaster master(in.database, in.queries, mopts);
    const std::uint16_t port = master.listen();

    std::vector<runtime::RemoteSlaveResult> outcomes(kSlaves);
    runtime::RunReport report;
    {
        // jthreads join on scope exit, also when run() throws.
        std::vector<std::jthread> slaves;
        for (std::size_t i = 0; i < kSlaves; ++i) {
            slaves.emplace_back([&, i] {
                runtime::RemoteSlaveOptions so;
                so.port = port;
                so.label = "sse" + std::to_string(i);
                outcomes[i] = runtime::run_remote_slave(
                    in.database, in.queries, so,
                    [&config, tracing, i](const net::wire::Welcome& w) {
                        engines::EngineConfig c = config;
                        c.top_k = w.top_k;
                        return make_engine(c, tracing, i);
                    });
            });
        }
        Timer clock;
        report = master.run(core::make_pss());
        const double call_s = clock.seconds();
        t.handshake_s = call_s - report.wall_seconds;
        t.search_s = report.wall_seconds;
    }
    for (const runtime::RemoteSlaveResult& o : outcomes) {
        if (!o.error.empty()) throw IoError("remote slave: " + o.error);
    }
    return report;
}

void write_tsv(const std::string& path, const Loaded& in,
               const runtime::RunReport& report,
               const align::GumbelParams& stats) {
    std::ofstream tsv(path);
    SWH_REQUIRE(static_cast<bool>(tsv), "cannot open hits TSV for writing");
    tsv << "query\tsubject\tscore\tbits\tevalue\n";
    for (std::size_t q = 0; q < in.queries.size(); ++q) {
        for (const core::Hit& h : report.hits[q]) {
            SWH_REQUIRE(h.db_index < in.database.size(),
                        "hit outside the database");
            const double e = stats.evalue(h.score, in.queries[q].size(),
                                          in.database.residues());
            if (e > kMaxEvalue) continue;
            char ebuf[32];
            std::snprintf(ebuf, sizeof ebuf, "%.2g", e);
            tsv << in.queries[q].id << '\t' << in.database[h.db_index].id
                << '\t' << h.score << '\t'
                << format_double(stats.bit_score(h.score), 1) << '\t' << ebuf
                << '\n';
        }
    }
    tsv.close();
    SWH_REQUIRE(!tsv.fail(), "writing the hits TSV failed");
}

}  // namespace

const align::ScoreMatrix& search_matrix() {
    static const align::ScoreMatrix m = align::ScoreMatrix::blosum62();
    return m;
}

Tracing::Tracing()
    : recorder(std::size_t{1} << 16), epoch(Clock::now()), execs(kSlaves) {}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

SearchResult run_search(Transport transport, const std::string& dir,
                        const std::string& tsv_path,
                        Tracing* tracing) {
    SearchResult out;
    const double cpu0 = cpu_seconds();
    Timer wall;
    const Loaded in = load(dir, out.t);

    out.report = transport == Transport::Socket
                     ? run_socket(in, tracing, out.t)
                     : run_in_process(in, tracing, out.t);
    if (tracing != nullptr) {
        tracing->run_end_trace_s = tracing->recorder.now_s();
    }

    Timer clock;
    const align::GumbelParams stats = align::fit_gumbel(search_matrix(), kGap);
    out.t.gumbel_s = clock.seconds();

    clock.reset();
    write_tsv(tsv_path, in, out.report, stats);
    out.t.write_s = clock.seconds();

    out.t.wall_s = wall.seconds();
    out.t.cpu_s = cpu_seconds() - cpu0;
    out.db_sequences = in.database.size();
    std::uint64_t query_residues = 0;
    for (const align::Sequence& q : in.queries) query_residues += q.size();
    out.cells = query_residues * in.database.residues();
    return out;
}

double run_setup_only(const std::string& dir) {
    StageTimes t;
    Timer wall;
    const Loaded in = load(dir, t);
    return wall.seconds();
}

}  // namespace swhbench
