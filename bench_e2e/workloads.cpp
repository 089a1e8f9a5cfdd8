#include "workloads.hpp"

#include <string_view>

#include "align/alphabet.hpp"
#include "db/generator.hpp"
#include "db/presets.hpp"
#include "io/fasta.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swhbench {

using namespace swh;

namespace {

/// Database spec shaped like one of the paper's Table II databases
/// (length distribution of the preset) at a fixed sequence count. The
/// name is ours: preset names contain spaces, which FASTA ids cannot.
db::DatabaseSpec shaped_like(const std::string& preset, std::string name,
                             std::size_t sequences, std::uint64_t seed) {
    db::DatabaseSpec spec = db::preset_by_name(preset).spec(1.0, seed);
    spec.name = std::move(name);
    spec.num_sequences = sequences;
    return spec;
}

/// `n` integer lengths evenly spaced over [lo, hi], ascending.
std::vector<std::size_t> spaced(std::size_t n, std::size_t lo,
                                std::size_t hi) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(lo + (hi - lo) * i / (n - 1));
    }
    return out;
}

/// Independent seeds for a workload's generators: the query and
/// database generators both split streams off their seed, so sharing
/// one would make query i a shifted copy of database sequence i.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view workload,
                          std::uint64_t stream) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the name
    for (const char c : workload) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    Rng rng(seed ^ h);
    for (std::uint64_t i = 0; i < stream; ++i) rng.next();
    return rng.next();
}

}  // namespace

const Workload& workload_by_name(const std::string& name) {
    static const std::vector<Workload> workloads = {
        {"paper40", Transport::InProcess},
        {"homolog", Transport::InProcess},
        {"short_socket", Transport::Socket},
        {"parity", Transport::InProcess},
    };
    for (const Workload& w : workloads) {
        if (w.name == name) return w;
    }
    throw ContractError("unknown workload: " + name +
                        " (expected paper40|homolog|short_socket|parity)");
}

std::string queries_path(const std::string& dir) {
    return dir + "/queries.fa";
}

std::string database_path(const std::string& dir) {
    return dir + "/database.fa";
}

InputSizes generate_inputs(const Workload& workload, std::uint64_t seed,
                           const std::string& dir) {
    const std::uint64_t qseed = derive_seed(seed, workload.name, 0);
    const std::uint64_t dseed = derive_seed(seed, workload.name, 1);
    std::vector<align::Sequence> queries;
    std::vector<align::Sequence> database;
    if (workload.name == "paper40") {
        // The paper's query set: 40 queries, 100..5000 aa, evenly spaced
        // in file order, against ~1M residues of SwissProt-shaped
        // random sequences (2778 × 360 aa mean).
        queries = db::make_query_set(40, 100, 5000, qseed);
        database = db::generate_database(
            shaped_like("UniProtKB/SwissProt", "sp", 2778, dseed));
    } else if (workload.name == "homolog") {
        // 200 queries of 50..400 aa, each a light mutant of a planted
        // 12-member family, in a 20k-sequence random background.
        db::ScanSample sample = db::make_scan_sample(
            20000 + 200 * 12, spaced(200, 50, 400), 12, qseed);
        queries = std::move(sample.queries);
        database = sample.database.sequences();
    } else if (workload.name == "short_socket") {
        // 2000 short queries (30..200 aa) against ~0.5M residues of
        // Rat-shaped sequences (1000 × 520 aa mean).
        queries = db::make_query_set(2000, 30, 200, qseed);
        database = db::generate_database(
            shaped_like("Ensembl Rat", "rat", 1000, dseed));
    } else if (workload.name == "parity") {
        // Small enough for one CLI run per benchmark run; the planted
        // families make the top hits real homologs, and the 600 aa
        // query crosses the interseq tile boundary.
        db::ScanSample sample = db::make_scan_sample(
            800, {40, 90, 150, 220, 300, 600}, 6, qseed);
        queries = std::move(sample.queries);
        database = sample.database.sequences();
    } else {
        throw ContractError("no generator for workload " + workload.name);
    }

    const align::Alphabet& aa = align::Alphabet::protein();
    io::write_fasta_file(queries_path(dir), queries, aa);
    io::write_fasta_file(database_path(dir), database, aa);

    InputSizes sizes;
    sizes.queries = queries.size();
    for (const align::Sequence& q : queries) sizes.query_residues += q.size();
    sizes.sequences = database.size();
    for (const align::Sequence& s : database) sizes.residues += s.size();
    return sizes;
}

}  // namespace swhbench
