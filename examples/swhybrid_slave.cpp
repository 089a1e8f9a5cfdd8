// swhybrid_slave — one slave PE of the multi-process runtime (ISSUE
// 10). Dials the master started by `swhybrid_search --transport=socket`,
// handshakes (Hello -> Welcome), builds its engine from the options the
// master pushed, and runs the exact slave loop the threaded runtime
// uses, over the wire protocol.
//
//   swhybrid_search queries.fa db.fa --transport=socket --port 4455 --expect-slaves 2 &
//   swhybrid_slave queries.fa db.fa --port 4455 --label sse0 &
//   swhybrid_slave queries.fa db.fa --port 4455 --label gpu0 --kind gpu
//
// Both processes must read the SAME query and database files: tasks
// reference queries by index and hits reference database sequences by
// index, so a mismatched file would silently corrupt results.

#include <fstream>
#include <iostream>

#include "db/database.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/faulty_engine.hpp"
#include "engines/sim_gpu_engine.hpp"
#include "io/fasta.hpp"
#include "io/indexed.hpp"
#include "runtime/remote.hpp"
#include "util/args.hpp"
#include "util/str.hpp"

using namespace swh;

namespace {

engines::FaultKind parse_fault_kind(const std::string& name) {
    if (name == "throw") return engines::FaultKind::Throw;
    if (name == "crash") return engines::FaultKind::Crash;
    if (name == "stall") return engines::FaultKind::Stall;
    if (name == "slow") return engines::FaultKind::Slow;
    throw ContractError("unknown fault kind: " + name +
                        " (expected throw|crash|stall|slow)");
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("swhybrid_slave",
                   "One slave process of the socket-transport hybrid "
                   "runtime; pair with swhybrid_search --transport=socket");
    args.add_positional("queries", "FASTA file of query sequences "
                        "(identical to the master's)", "queries.fa");
    args.add_positional("database", "FASTA file of database sequences "
                        "(identical to the master's)", "database.fa");
    args.add_option("host", "master address", "127.0.0.1");
    args.add_option("port", "master port (from --transport=socket)", "0");
    args.add_option("label", "slave label for reports", "remote0");
    args.add_option("kind", "engine kind: sse|gpu", "sse");
    args.add_option("connect-timeout",
                    "seconds to keep redialling the master", "10");
    args.add_option("gap-open", "gap open penalty", "10");
    args.add_option("gap-extend", "gap extension penalty", "2");
    args.add_option("matrix", "NCBI-format matrix file, or 'blosum62'",
                    "blosum62");
    args.add_option("fault",
                    "inject an engine fault: kind[@cells] with kind "
                    "throw|crash|stall|slow, e.g. crash@50000",
                    "");
    args.add_option("fault-seed", "seed for the fault-injection stream",
                    "24029");
    args.add_option("chan-stall",
                    "extra delivery stall in seconds on this slave's "
                    "inbound queue",
                    "0");
    args.add_option("chan-delay",
                    "simulated link latency on this slave's inbound queue",
                    "0");

    try {
        if (!args.parse(argc, argv)) return 0;
        SWH_REQUIRE(args.get_int("port") > 0,
                    "--port is required (the master prints it)");

        const align::Alphabet& aa = align::Alphabet::protein();
        const auto queries = io::read_fasta_file(args.get("queries"), aa);
        SWH_REQUIRE(!queries.empty(), "query file has no sequences");
        const io::IndexedFastaReader db_reader(args.get("database"), aa);
        db::Database database(args.get("database"),
                              db_reader.slice(0, db_reader.size()));
        SWH_REQUIRE(database.size() > 0, "database has no sequences");

        align::ScoreMatrix matrix = align::ScoreMatrix::blosum62();
        if (args.get("matrix") != "blosum62") {
            std::ifstream min(args.get("matrix"));
            SWH_REQUIRE(static_cast<bool>(min), "cannot open matrix file");
            matrix = align::ScoreMatrix::from_ncbi_stream(
                aa, min, args.get("matrix"));
        }
        const align::GapPenalty gap{
            static_cast<align::Score>(args.get_int("gap-open")),
            static_cast<align::Score>(args.get_int("gap-extend"))};

        const std::string kind_name = args.get("kind");
        SWH_REQUIRE(kind_name == "sse" || kind_name == "gpu",
                    "unknown slave kind (expected sse|gpu)");

        runtime::RemoteSlaveOptions options;
        options.host = args.get("host");
        options.port = static_cast<std::uint16_t>(args.get_int("port"));
        options.label = args.get("label");
        options.kind = kind_name == "gpu" ? core::PeKind::Gpu
                                          : core::PeKind::SseCore;
        options.connect_timeout_s = args.get_double("connect-timeout");
        options.inbox_stall_s = args.get_double("chan-stall");
        options.inbox_delay_s = args.get_double("chan-delay");

        // The engine is built AFTER the handshake so master-owned
        // options (top_k above all) come from the Welcome — the two
        // processes cannot silently diverge on them.
        auto factory = [&](const net::wire::Welcome& welcome)
            -> std::unique_ptr<engines::ComputeEngine> {
            engines::EngineConfig config;
            config.matrix = &matrix;
            config.gap = gap;
            config.top_k = welcome.top_k;
            config.isa = simd::best_supported();
            std::unique_ptr<engines::ComputeEngine> engine;
            if (kind_name == "gpu") {
                engine = std::make_unique<engines::SimGpuEngine>(
                    config, engines::GpuDeviceModel{}, /*pace=*/false);
            } else {
                engine = std::make_unique<engines::CpuEngine>(config);
            }
            if (!args.get("fault").empty()) {
                const std::vector<std::string> ka =
                    split(args.get("fault"), '@');
                SWH_REQUIRE(ka.size() <= 2,
                            "fault spec must look like kind[@cells]");
                engines::FaultPlan plan;
                plan.kind = parse_fault_kind(ka[0]);
                if (ka.size() == 2) {
                    plan.after_cells =
                        static_cast<std::uint64_t>(std::stoull(ka[1]));
                }
                plan.seed =
                    static_cast<std::uint64_t>(args.get_int("fault-seed"));
                engine = std::make_unique<engines::FaultyEngine>(
                    std::move(engine), plan);
            }
            return engine;
        };

        std::cout << options.label << ": dialling " << options.host << ':'
                  << options.port << "\n";
        const runtime::RemoteSlaveResult result =
            runtime::run_remote_slave(database, queries, options, factory);
        if (!result.connected) {
            std::cerr << options.label << ": " << result.error << '\n';
            return 1;
        }
        std::cout << options.label << ": pe " << result.welcome.pe
                  << " done — "
                  << with_thousands(static_cast<long long>(
                         result.report.cells_computed))
                  << " cells computed, " << result.report.tasks_cancelled
                  << " cancelled, " << result.report.engine_failures
                  << " engine failures"
                  << (result.report.crashed ? ", crashed" : "") << '\n';
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
