// Whole-database scan throughput across the three-stage funnel: the
// packed two-pass striped pipeline (the PR 1 baseline), the adaptive
// inter-sequence exhaustive scan (the previous hot path, now the
// funnel's exact stage), and the full funnel with the ungapped
// gap-slack prefilter armed. All run through db::PackedDatabase +
// align::DatabaseScanner on the deterministic sample workload
// (db::make_scan_sample): a random background plus one planted homolog
// family per query length, with each query a light mutant of its
// family's anchor — the realistic shape of a top-k homology search,
// where the k-th best score sits far above the random background and
// the funnel's dynamic threshold has something to feed on. The
// exhaustive baselines are timed on the same database in the same run,
// so the comparison stays honest. The funnel's top-k is verified
// bit-identical
// to the exhaustive scan's before anything is timed — a mismatch is a
// fatal error. Emits machine-readable BENCH_scan.json for the perf
// trajectory alongside a human table; kernel dispatch and filter
// counts of both scored passes are routed through
// obs::MetricsRegistry under CpuEngine's metric names
// (engines::export_scan_stats) and included in the JSON.
//
// --family-size sets the planted family per query length: the default
// 12 exceeds k, so the threshold sits at homolog level; with one member
// and k = 10 it sits at random-background level and the prefilter
// prunes almost nothing — the regime where its cost model must stop
// paying for sweeps.
//
// Usage: bench_scan [--reps N] [--db-seqs N] [--qlens L,L,...]
//                   [--topk K] [--family-size N] [--json PATH | --out PATH]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "align/db_scan.hpp"
#include "align/striped.hpp"
#include "align/ungapped.hpp"
#include "db/database.hpp"
#include "db/packed.hpp"
#include "db/presets.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/topk.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"
#include "util/args.hpp"
#include "util/hostinfo.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/timer.hpp"

using namespace swh;

namespace {

constexpr align::GapPenalty kGap{10, 2};

/// Single-worker exhaustive scan through the two-pass pipeline. With
/// `cohorts` empty this is exactly the PR 1 packed baseline; with the
/// lane-interleaved view attached, the exact stage dispatches per
/// cohort between the inter-sequence and striped kernels.
align::Score run_scan(const align::StripedAligner& aligner,
                      const db::PackedDatabase& packed,
                      align::ScanScratch& scratch,
                      align::InterleavedCohorts cohorts,
                      align::ScanStats* stats = nullptr) {
    align::DatabaseScanner scanner(aligner, packed.view(),
                                   align::DatabaseScanner::kDefaultChunk,
                                   cohorts);
    align::Score best = 0;
    scanner.run_worker(scratch,
                       [&](std::uint32_t, std::uint32_t, align::Score s) {
                           best = std::max(best, s);
                           return true;
                       });
    if (stats != nullptr) *stats = scanner.stats();
    return best;
}

/// Single-worker top-k scan; with `prefilter` the threshold feed is
/// wired to the collector's running k-th best, i.e. the full funnel.
struct TopKOutcome {
    std::vector<core::Hit> hits;
    align::ScanStats stats;
};

TopKOutcome run_topk(const align::StripedAligner& aligner,
                     const db::PackedDatabase& packed,
                     align::ScanScratch& scratch,
                     align::InterleavedCohorts cohorts, std::size_t k,
                     bool prefilter) {
    std::atomic<align::Score> tau{engines::TopK::kNoThreshold};
    align::DatabaseScanner scanner(aligner, packed.view(),
                                   align::DatabaseScanner::kDefaultChunk,
                                   cohorts, prefilter ? &tau : nullptr);
    engines::TopK collector(k);
    scanner.run_worker(
        scratch,
        [&](std::uint32_t idx, std::uint32_t, align::Score s) {
            collector.add(idx, s);
            tau.store(collector.kth_score(), std::memory_order_relaxed);
            return true;
        },
        [](std::uint32_t, std::uint32_t) { return true; });
    TopKOutcome out;
    out.hits = collector.take();
    out.stats = scanner.stats();
    return out;
}

/// Stage-1 alone: the ungapped gap-slack sweep over every cohort, for
/// the prefilter's standalone GCUPS.
align::Score run_filter_only(const align::StripedAligner& aligner,
                             align::ScanScratch& scratch,
                             align::InterleavedCohorts cohorts) {
    std::uint8_t lane_best[64];
    align::Score acc = 0;
    const std::size_t qlen = aligner.interseq()->query_len;
    const std::size_t tiles =
        (qlen + align::DatabaseScanner::kFilterChunkRows - 1) /
        align::DatabaseScanner::kFilterChunkRows;
    const std::size_t rows = tiles == 0 ? 1 : (qlen + tiles - 1) / tiles;
    for (std::size_t c = 0; c < cohorts.count; ++c) {
        const align::CohortDesc& d = cohorts.cohorts[c];
        // Same row tiling as DatabaseScanner::filter_cohort, so this
        // measures the funnel's actual stage-1 cost.
        for (std::size_t r0 = 0; r0 < qlen; r0 += rows) {
            sw_ungapped_interseq_u8(*aligner.interseq(),
                                    cohorts.arena + d.offset, d.columns,
                                    aligner.gap(), aligner.isa(), scratch,
                                    lane_best, r0, r0 + rows);
            for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
                acc = std::max<align::Score>(acc, lane_best[l]);
            }
        }
    }
    return acc;
}

struct Row {
    std::size_t qlen = 0;
    std::size_t tile_count = 1;  ///< query tiles of the interseq kernels
    double packed_gcups = 0.0;
    double interseq_gcups = 0.0;
    double speedup = 0.0;
    double filter_gcups = 0.0;
    double filter_selectivity = 1.0;
    double exact_gcups = 0.0;
    double funnel_gcups = 0.0;
    double funnel_speedup = 0.0;
    align::ScanStats exhaustive;  ///< the unarmed scan
    /// The armed (funnel) pass — the one that runs the prefilter and
    /// exercises the survivor re-pack.
    align::ScanStats funnel;
};

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("bench_scan",
                   "three-stage funnel scan vs exhaustive scan GCUPS");
    args.add_option("reps", "timing repetitions (best-of)", "5");
    args.add_option("db-seqs", "synthetic database sequence count", "1500");
    // The sweep covers the paper's Table-II query range (100..5000 aa)
    // plus the 1024/1025 pair straddling a query-tile boundary of the
    // inter-sequence kernels (4 * align::kInterseqTileRows).
    args.add_option("qlens", "comma-separated query lengths",
                    "50,100,150,200,500,1024,1025,2000,3000,5000");
    args.add_option("topk", "hits kept per query (funnel threshold k)", "10");
    args.add_option("family-size", "planted homologs per query length", "12");
    args.add_option("json", "output JSON path", "");
    args.add_option("out", "output JSON path (alias of --json)",
                    "BENCH_scan.json");
    if (!args.parse(argc, argv)) return 0;
    const int reps = static_cast<int>(args.get_int("reps"));
    const std::size_t db_seqs =
        static_cast<std::size_t>(args.get_int("db-seqs"));
    const std::size_t top_k = static_cast<std::size_t>(args.get_int("topk"));
    const std::int64_t family_size = args.get_int("family-size");
    std::vector<std::size_t> qlens;
    for (const std::string& tok : split(args.get("qlens"), ',')) {
        if (tok.empty() ||
            tok.find_first_not_of("0123456789") != std::string::npos) {
            std::cerr << "error: --qlens expects comma-separated positive "
                         "integers, got '"
                      << tok << "'\n";
            return 1;
        }
        const std::size_t v = static_cast<std::size_t>(std::stoul(tok));
        if (v == 0) {
            std::cerr << "error: --qlens lengths must be positive\n";
            return 1;
        }
        qlens.push_back(v);
    }
    if (qlens.empty()) {
        std::cerr << "error: --qlens must name at least one length\n";
        return 1;
    }
    if (top_k == 0) {
        std::cerr << "error: --topk must be positive\n";
        return 1;
    }
    if (family_size < 1 ||
        static_cast<std::size_t>(family_size) * qlens.size() >= db_seqs) {
        std::cerr << "error: --family-size must be at least 1 and leave "
                     "room for the background in --db-seqs\n";
        return 1;
    }
    const std::string out_path =
        args.get("json").empty() ? args.get("out") : args.get("json");

    const align::ScoreMatrix matrix = align::ScoreMatrix::blosum62();
    const simd::IsaLevel isa = simd::best_supported();
    const int lanes = align::lanes_u8(isa);

    const db::ScanSample sample = db::make_scan_sample(
        db_seqs, qlens, static_cast<std::size_t>(family_size));
    const db::Database& database = sample.database;
    const db::PackedDatabase& packed = database.packed();
    const align::InterleavedCohorts cohorts =
        packed.interleaved(lanes).view();
    const std::uint64_t db_residues = database.residues();

    std::cout << "bench_scan: isa=" << simd::to_string(isa)
              << " lanes=" << lanes << " db_seqs=" << database.size()
              << " db_residues=" << db_residues << " reps=" << reps
              << " topk=" << top_k << " family_size=" << family_size
              << "\n\n";
    std::cout << "qlen   packed   exact    funnel GCUPS   selectivity   "
                 "funnel speedup\n";

    obs::MetricsRegistry metrics;
    std::vector<Row> rows;
    for (std::size_t qi = 0; qi < qlens.size(); ++qi) {
        const std::size_t qlen = qlens[qi];
        // The sample's query for this config: a light mutant of the
        // planted family anchor of this length (its actual size can
        // differ from the nominal length by a few indels).
        const align::Sequence& q = sample.queries[qi];
        const align::StripedAligner aligner(q.residues, matrix, kGap, isa);
        const double cells = static_cast<double>(q.residues.size()) *
                             static_cast<double>(db_residues);

        align::ScanScratch scratch;
        // Warm-up all paths (page in the db, grow the scratch) and check
        // equivalence: the packed and interseq exhaustive pipelines must
        // settle identical best scores, and the funnel's top-k must be
        // bit-identical to the exhaustive scan's.
        const align::Score packed_best =
            run_scan(aligner, packed, scratch, {});
        Row row;
        row.qlen = qlen;
        row.tile_count = align::interseq_tile_count(q.residues.size());
        const align::Score interseq_best =
            run_scan(aligner, packed, scratch, cohorts, &row.exhaustive);
        if (packed_best != interseq_best) {
            std::cerr << "FATAL: score mismatch (packed=" << packed_best
                      << " interseq=" << interseq_best << ")\n";
            return 1;
        }
        const TopKOutcome exhaustive = run_topk(aligner, packed, scratch,
                                                cohorts, top_k,
                                                /*prefilter=*/false);
        const TopKOutcome funnel = run_topk(aligner, packed, scratch, cohorts,
                                            top_k, /*prefilter=*/true);
        if (exhaustive.hits.size() != funnel.hits.size()) {
            std::cerr << "FATAL: funnel top-k size mismatch\n";
            return 1;
        }
        for (std::size_t i = 0; i < funnel.hits.size(); ++i) {
            if (funnel.hits[i].db_index != exhaustive.hits[i].db_index ||
                funnel.hits[i].score != exhaustive.hits[i].score) {
                std::cerr << "FATAL: funnel top-k diverges at rank " << i
                          << " (qlen=" << qlen << ")\n";
                return 1;
            }
        }
        row.funnel = funnel.stats;
        row.filter_selectivity =
            database.size() == 0
                ? 1.0
                : static_cast<double>(database.size() -
                                      funnel.stats.subjects_pruned) /
                      static_cast<double>(database.size());

        double packed_best_s = 1e30;
        double interseq_best_s = 1e30;
        double funnel_best_s = 1e30;
        double filter_best_s = 1e30;
        for (int r = 0; r < reps; ++r) {
            Timer t;
            run_scan(aligner, packed, scratch, {});
            packed_best_s = std::min(packed_best_s, t.seconds());
            t.reset();
            run_scan(aligner, packed, scratch, cohorts);
            interseq_best_s = std::min(interseq_best_s, t.seconds());
            t.reset();
            run_topk(aligner, packed, scratch, cohorts, top_k,
                     /*prefilter=*/true);
            funnel_best_s = std::min(funnel_best_s, t.seconds());
            t.reset();
            run_filter_only(aligner, scratch, cohorts);
            filter_best_s = std::min(filter_best_s, t.seconds());
        }

        row.packed_gcups = cells / packed_best_s / 1e9;
        row.interseq_gcups = cells / interseq_best_s / 1e9;
        row.speedup = row.interseq_gcups / row.packed_gcups;
        // Per-stage throughput: the prefilter sweep alone, and the
        // exact stage alone (the exhaustive interseq scan — what the
        // funnel's survivors run through). The funnel numbers are
        // end-to-end: the same semantic work (all cells adjudicated)
        // over prefilter + surviving exact time.
        row.filter_gcups = cells / filter_best_s / 1e9;
        row.exact_gcups = row.interseq_gcups;
        row.funnel_gcups = cells / funnel_best_s / 1e9;
        row.funnel_speedup = row.funnel_gcups / row.exact_gcups;
        rows.push_back(row);
        // Both scored passes under CpuEngine's metric names, so the
        // block reads like a search run's counters.
        engines::export_scan_stats(row.exhaustive, metrics);
        engines::export_scan_stats(row.funnel, metrics);
        std::cout << format_double(static_cast<double>(qlen), 0) << "    "
                  << format_double(row.packed_gcups, 3) << "    "
                  << format_double(row.exact_gcups, 3) << "    "
                  << format_double(row.funnel_gcups, 3) << "          "
                  << format_double(row.filter_selectivity, 3) << "         "
                  << format_double(row.funnel_speedup, 3) << "\n";
    }

    double best_speedup = 0.0;
    double geomean = 1.0;
    double geomean_short = 1.0;
    std::size_t n_short = 0;
    double geomean_long = 1.0;
    std::size_t n_long = 0;
    double funnel_geomean = 1.0;
    double funnel_geomean_short = 1.0;
    std::size_t n_funnel_short = 0;
    for (const Row& r : rows) {
        best_speedup = std::max(best_speedup, r.speedup);
        geomean *= r.speedup;
        funnel_geomean *= r.funnel_speedup;
        if (r.qlen <= 200) {
            geomean_short *= r.speedup;
            ++n_short;
        }
        // Long = multi-tile queries (the paper's Table-II upper half),
        // where the seed had no interseq coverage at all.
        if (r.qlen >= 1024) {
            geomean_long *= r.speedup;
            ++n_long;
        }
        if (r.qlen <= 500) {
            funnel_geomean_short *= r.funnel_speedup;
            ++n_funnel_short;
        }
    }
    geomean = rows.empty() ? 0.0
                           : std::pow(geomean, 1.0 / static_cast<double>(
                                                         rows.size()));
    geomean_short =
        n_short == 0
            ? 0.0
            : std::pow(geomean_short, 1.0 / static_cast<double>(n_short));
    geomean_long =
        n_long == 0
            ? 0.0
            : std::pow(geomean_long, 1.0 / static_cast<double>(n_long));
    funnel_geomean =
        rows.empty() ? 0.0
                     : std::pow(funnel_geomean,
                                1.0 / static_cast<double>(rows.size()));
    funnel_geomean_short =
        n_funnel_short == 0
            ? 0.0
            : std::pow(funnel_geomean_short,
                       1.0 / static_cast<double>(n_funnel_short));

    // Host provenance so archived BENCH_scan.json files are
    // self-describing: absolute GCUPS numbers are only comparable
    // within one (machine, compiler, flags) tuple; the perf gate
    // compares machine-independent speedup ratios instead.
    const HostInfo host = host_info();
    const auto jstr = [](const std::string& s) {
        std::string out;
        for (const char c : s) {
            if (c == '"' || c == '\\') out.push_back('\\');
            if (static_cast<unsigned char>(c) < 0x20) continue;
            out.push_back(c);
        }
        return out;
    };

    std::ofstream out(out_path);
    out << "{\n"
        << "  \"bench\": \"scan\",\n"
        << "  \"isa\": \"" << simd::to_string(isa) << "\",\n"
        << "  \"host\": {\n"
        << "    \"cpu_model\": \"" << jstr(host.cpu_model) << "\",\n"
        << "    \"hardware_threads\": " << host.hardware_threads << ",\n"
        << "    \"compiler\": \"" << jstr(host.compiler) << "\",\n"
        << "    \"git_sha\": \"" << jstr(host.git_sha) << "\",\n"
        << "    \"build_flags\": \"" << jstr(host.build_flags) << "\"\n"
        << "  },\n"
        << "  \"cohort_lanes\": " << lanes << ",\n"
        << "  \"db_sequences\": " << database.size() << ",\n"
        << "  \"db_residues\": " << db_residues << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"top_k\": " << top_k << ",\n"
        << "  \"family_size\": " << family_size << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"query_len\": " << r.qlen
            << ", \"packed_gcups\": " << format_double(r.packed_gcups, 4)
            << ", \"interseq_gcups\": " << format_double(r.interseq_gcups, 4)
            << ", \"speedup\": " << format_double(r.speedup, 4)
            << ", \"filter_gcups\": " << format_double(r.filter_gcups, 4)
            << ", \"filter_selectivity\": "
            << format_double(r.filter_selectivity, 4)
            << ", \"exact_gcups\": " << format_double(r.exact_gcups, 4)
            << ", \"funnel_gcups\": " << format_double(r.funnel_gcups, 4)
            << ", \"funnel_speedup\": " << format_double(r.funnel_speedup, 4)
            << ", \"subjects_pruned\": " << r.funnel.subjects_pruned
            << ", \"filter_offs\": " << r.funnel.filter_offs
            << ", \"cohorts_filtered\": " << r.funnel.cohorts_filtered
            << ", \"tile_count\": " << r.tile_count
            << ", \"cohorts_interseq\": " << r.exhaustive.cohorts_interseq
            << ", \"cohorts_streamed\": " << r.exhaustive.cohorts_streamed
            << ", \"cohorts_striped\": " << r.exhaustive.cohorts_striped
            << ", \"repacks\": " << r.exhaustive.repacks
            << ", \"escalations16\": "
            << r.exhaustive.escalations16 + r.funnel.escalations16
            << ", \"subjects_interseq\": " << r.exhaustive.subjects_interseq
            << ", \"subjects_striped\": " << r.exhaustive.subjects_striped
            << ", \"funnel_repacks\": " << r.funnel.repacks
            << ", \"funnel_escalations16\": "
            << r.funnel.escalations16
            << ", \"funnel_cohorts_interseq\": "
            << r.funnel.cohorts_interseq
            << ", \"funnel_subjects_interseq\": "
            << r.funnel.subjects_interseq
            << ", \"funnel_subjects_striped\": "
            << r.funnel.subjects_striped
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"speedup_geomean_short\": " << format_double(geomean_short, 4)
        << ",\n"
        << "  \"speedup_geomean_long\": " << format_double(geomean_long, 4)
        << ",\n"
        << "  \"speedup_geomean\": " << format_double(geomean, 4) << ",\n"
        << "  \"speedup_best\": " << format_double(best_speedup, 4) << ",\n"
        << "  \"funnel_speedup_geomean_short\": "
        << format_double(funnel_geomean_short, 4) << ",\n"
        << "  \"funnel_speedup_geomean\": "
        << format_double(funnel_geomean, 4) << ",\n"
        << "  \"metrics\": " << metrics.snapshot().to_json() << "\n"
        << "}\n";
    std::cout << "\nspeedup geomean_short(qlen<=200)="
              << format_double(geomean_short, 3)
              << " geomean_long(qlen>=1024)=" << format_double(geomean_long, 3)
              << " geomean=" << format_double(geomean, 3)
              << " best=" << format_double(best_speedup, 3)
              << "\nfunnel speedup geomean_short(qlen<=500)="
              << format_double(funnel_geomean_short, 3)
              << " geomean=" << format_double(funnel_geomean, 3) << " -> "
              << out_path << "\n";
    return 0;
}
