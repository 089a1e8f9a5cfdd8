// bench_e2e — whole-search benchmark program. run.py builds it and calls
// its commands; README.md in this directory defines every metric.
//
//   bench_e2e generate --workload W --seed N --dir D
//       writes D/queries.fa and D/database.fa, prints their sizes
//   bench_e2e search --workload W --seed N --dir D --seconds S --trace 0|1
//       repeats whole searches for S seconds, checks the hits, prints
//       the metrics as one JSON line (end-to-end, or per-layer with
//       --trace 1)
//   bench_e2e parity --dir D
//       one in-process and one socket search of D, hits TSVs written
//       to D/bench_inproc.tsv and D/bench_socket.tsv
//   bench_e2e selftest
//       the hit check must accept a true top-k and catch corrupted ones

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/db_scan.hpp"
#include "align/striped.hpp"
#include "align/sw_scalar.hpp"
#include "check.hpp"
#include "engines/topk.hpp"
#include "io/fasta.hpp"
#include "pipeline.hpp"
#include "simd/arch.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/hostinfo.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace swh;
using namespace swhbench;

namespace {

/// Fewest searches a run makes even when one outlasts --seconds.
constexpr std::size_t kMinSearches = 2;

/// Set-ups without a search that an untraced run adds after its
/// searches, so setup_s — a small figure next to a search — is a median
/// of many: at least kMinSetupReps, then more while they take under a
/// tenth of --seconds, up to kMaxSetupReps.
constexpr std::size_t kMinSetupReps = 10;
constexpr std::size_t kMaxSetupReps = 40;

/// Cells the single-worker scanner probe spends per configuration.
constexpr double kProbeCells = 1.2e10;

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string json_number(double v) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << (std::isfinite(v) ? v : 0.0);
    return os.str();
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

/// Top-k lists of two searches of the same inputs must agree exactly.
std::size_t queries_differing(const std::vector<std::vector<core::Hit>>& a,
                              const std::vector<std::vector<core::Hit>>& b) {
    if (a.size() != b.size()) return std::max(a.size(), b.size());
    std::size_t n = 0;
    for (std::size_t q = 0; q < a.size(); ++q) n += a[q] != b[q] ? 1 : 0;
    return n;
}

// ---- per-layer figures of one traced search ------------------------------

struct TracedSample {
    StageTimes t;
    double gcups = 0.0;
    double engine_tasks = 0.0;
    double engine_busy_s = 0.0;
    double engine_cells = 0.0;
    std::vector<double> task_s;
    std::vector<double> dispatch_gap_s;
    double pe_idle_frac = 0.0;
    double imbalance = 0.0;
    double tail_s = 0.0;
    double waste_frac = 0.0;
    double packages = 0.0;
    double pkg_tasks_mean = 0.0;
    double replicas = 0.0;
    double rate_err = 0.0;
    double selectivity = 0.0;
    double filter_offs = 0.0;
    double escalations16 = 0.0;
    double inbox_depth_max = 0.0;
};

TracedSample digest_traced(const SearchResult& r, Tracing& tr) {
    TracedSample s;
    s.t = r.t;
    s.gcups = r.gcups();

    std::vector<double> busy;
    for (const std::vector<ExecSample>& pe : tr.execs) {
        double b = 0.0;
        for (std::size_t i = 0; i < pe.size(); ++i) {
            const double d = pe[i].end_s - pe[i].start_s;
            b += d;
            s.task_s.push_back(d);
            s.engine_cells += static_cast<double>(pe[i].cells);
            if (i > 0) {
                s.dispatch_gap_s.push_back(pe[i].start_s - pe[i - 1].end_s);
            }
        }
        s.engine_tasks += static_cast<double>(pe.size());
        busy.push_back(b);
        s.engine_busy_s += b;
    }
    const double n = static_cast<double>(busy.size());
    s.pe_idle_frac = 1.0 - ratio(s.engine_busy_s, n * r.t.search_s);
    s.imbalance = ratio(*std::max_element(busy.begin(), busy.end()),
                        s.engine_busy_s / n);
    s.waste_frac =
        ratio(static_cast<double>(r.report.computed_cells -
                                  std::min(r.report.computed_cells,
                                           r.report.accepted_cells)),
              static_cast<double>(r.report.computed_cells));

    // Tail: from the last task's first assignment (replicas excluded)
    // to the end of run(), both on the trace clock.
    const obs::Trace trace = tr.recorder.drain();
    std::map<core::TaskId, double> first_assign;
    for (const obs::TraceLaneData& lane : trace.lanes) {
        if (lane.label != "master") continue;
        for (const obs::TraceEvent& e : lane.events) {
            if (e.kind == obs::EventKind::TaskAssigned) {
                first_assign.emplace(e.task, e.t);
            }
        }
    }
    double last = 0.0;
    for (const auto& [task, t] : first_assign) last = std::max(last, t);
    s.tail_s = tr.run_end_trace_s - last;

    const obs::MetricsSnapshot& m = r.report.metrics;
    s.packages = static_cast<double>(m.counter("sched.packages"));
    if (const obs::HistogramSummary* h = m.histogram("sched.package_size")) {
        s.pkg_tasks_mean = h->mean;
    }
    s.replicas = static_cast<double>(r.report.replicas_issued);
    if (const obs::HistogramSummary* h =
            m.histogram("sched.rate_estimate_rel_error")) {
        s.rate_err = h->mean;
    }
    if (const obs::HistogramSummary* h =
            m.histogram("channel.master_inbox.depth")) {
        s.inbox_depth_max = h->max;
    }
    // The engine counters live in the Tracing registry (the engines get
    // it through EngineConfig::metrics), not in the runtime snapshot on
    // the socket path; read them from the registry for both.
    const obs::MetricsSnapshot em = tr.metrics.snapshot();
    const double visited = s.engine_tasks * static_cast<double>(r.db_sequences);
    s.selectivity =
        1.0 - ratio(static_cast<double>(em.counter("engine.cpu.filter.pruned")),
                    visited);
    s.filter_offs = static_cast<double>(em.counter("engine.cpu.filter.offs"));
    s.escalations16 =
        static_cast<double>(em.counter("scan.dispatch.escalations16"));
    return s;
}

template <class T, class F>
double median_of(const std::vector<T>& xs, F f) {
    std::vector<double> v;
    for (const T& x : xs) v.push_back(f(x));
    return median(v);
}

// ---- single-worker scanner probe -----------------------------------------

struct ProbeResult {
    double exact_gcups = 0.0;
    double funnel_gcups = 0.0;
};

/// GCUPS of one DatabaseScanner worker over a stride sample of the
/// queries (about kProbeCells cells), once with the prefilter off (the
/// exact stage) and once armed (the funnel the engines run).
ProbeResult probe_scanner(const std::string& dir) {
    const align::Alphabet& aa = align::Alphabet::protein();
    const auto queries = io::read_fasta_file(queries_path(dir), aa);
    const db::Database database(
        "probe", io::read_fasta_file(database_path(dir), aa));
    const simd::IsaLevel isa = simd::best_supported();
    const db::PackedDatabase& packed = database.packed();
    const align::InterleavedCohorts cohorts =
        packed.interleaved(align::lanes_u8(isa)).view();

    double total = 0.0;
    for (const align::Sequence& q : queries) {
        total += static_cast<double>(q.size()) *
                 static_cast<double>(database.residues());
    }
    const std::size_t stride = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(total / kProbeCells)));

    ProbeResult out;
    for (const bool prefilter : {false, true}) {
        double cells = 0.0;
        double seconds = 0.0;
        align::ScanScratch scratch;
        for (std::size_t qi = stride / 2; qi < queries.size(); qi += stride) {
            Timer clock;
            const align::StripedAligner aligner(queries[qi].residues,
                                                search_matrix(), kGap, isa);
            std::atomic<align::Score> tau{engines::TopK::kNoThreshold};
            align::DatabaseScanner scanner(
                aligner, packed.view(), align::DatabaseScanner::kDefaultChunk,
                aligner.interseq() != nullptr ? cohorts
                                              : align::InterleavedCohorts{},
                prefilter ? &tau : nullptr);
            engines::TopK top(kTopK);
            scanner.run_worker(
                scratch, [&](std::uint32_t idx, std::uint32_t, align::Score s) {
                    top.add(idx, s);
                    tau.store(top.kth_score(), std::memory_order_relaxed);
                    return true;
                });
            seconds += clock.seconds();
            cells += static_cast<double>(queries[qi].size()) *
                     static_cast<double>(database.residues());
        }
        (prefilter ? out.funnel_gcups : out.exact_gcups) =
            ratio(cells, seconds) / 1e9;
    }
    return out;
}

// ---- commands ------------------------------------------------------------

int cmd_generate(const ArgParser& args) {
    const Workload& w = workload_by_name(args.get("workload"));
    const InputSizes s = generate_inputs(
        w, static_cast<std::uint64_t>(args.get_int("seed")), args.get("dir"));
    std::cout << "{\"queries\": " << s.queries
              << ", \"query_residues\": " << s.query_residues
              << ", \"sequences\": " << s.sequences
              << ", \"residues\": " << s.residues
              << ", \"cells\": " << s.cells() << "}\n";
    return 0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    // Human-readable table first, then the machine-readable line.
    for (const Metric& m : metrics) {
        std::cout << "  " << m.name << " = " << json_number(m.value) << ' '
                  << m.unit << '\n';
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << json_string(metrics[i].name)
                  << ": {\"value\": " << json_number(metrics[i].value)
                  << ", \"unit\": " << json_string(metrics[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

int cmd_search(const ArgParser& args) {
    const Workload& w = workload_by_name(args.get("workload"));
    const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const std::string dir = args.get("dir");
    const double seconds = args.get_double("seconds");
    const bool traced = args.get_int("trace") != 0;
    const std::string tsv = dir + "/hits.tsv";

    std::vector<SearchResult> plain;     // untraced, workload transport
    std::vector<TracedSample> tracedv;   // traced, workload transport
    std::vector<SearchResult> inproc;    // untraced in-process pairing
    std::size_t unstable = 0;            // queries whose top-k moved
    std::vector<std::vector<core::Hit>> first_hits;
    std::size_t tasks = 0;
    std::size_t failed_tasks = 0;
    auto account = [&](const char* kind, const SearchResult& r) {
        const runtime::RunReport& report = r.report;
        std::cout << "  " << kind << " search: wall " << json_number(r.t.wall_s)
                  << " s, setup " << json_number(r.t.setup_s())
                  << " s (handshake " << json_number(r.t.handshake_s)
                  << " s), run "
                  << json_number(r.t.search_s) << " s, "
                  << json_number(r.gcups()) << " GCUPS, "
                  << report.replicas_issued << " replicas, computed/accepted "
                  << json_number(ratio(
                         static_cast<double>(report.computed_cells),
                         static_cast<double>(report.accepted_cells)))
                  << '\n';
        if (first_hits.empty()) first_hits = report.hits;
        unstable = std::max(unstable,
                            queries_differing(first_hits, report.hits));
        tasks += report.hits.size();
        failed_tasks += report.failed_tasks.size();
    };

    // Peak memory of the first search: the process has done nothing
    // else yet, so this is the figure a one-search swhybrid_search
    // process reaches. Later searches start from a heap that earlier
    // ones left fragmented.
    double first_rss_mb = 0.0;
    Timer budget;
    do {
        plain.push_back(run_search(w.transport, dir, tsv, nullptr));
        if (plain.size() == 1) first_rss_mb = peak_rss_mb();
        account("plain", plain.back());
        if (!traced) continue;
        Tracing tr;
        const SearchResult r = run_search(w.transport, dir, tsv, &tr);
        account("traced", r);
        tracedv.push_back(digest_traced(r, tr));
        if (w.transport == Transport::Socket) {
            inproc.push_back(
                run_search(Transport::InProcess, dir, tsv, nullptr));
            account("in-process", inproc.back());
        }
    } while (budget.seconds() < seconds || plain.size() < kMinSearches);
    std::vector<double> setups;
    for (const SearchResult& r : plain) setups.push_back(r.t.setup_s());
    if (!traced) {
        // The searches' own set-ups include the socket handshake; these
        // cannot, so add this run's median handshake to each.
        const double handshake = median_of(
            plain, [](const SearchResult& r) { return r.t.handshake_s; });
        Timer spent;
        for (std::size_t i = 0;
             i < kMinSetupReps ||
             (i < kMaxSetupReps && spent.seconds() < 0.1 * seconds);
             ++i) {
            setups.push_back(run_setup_only(dir) + handshake);
        }
    }

    // Untimed correctness check of the first search's hits (every later
    // search was compared with it above).
    const align::Alphabet& aa = align::Alphabet::protein();
    const auto queries = io::read_fasta_file(queries_path(dir), aa);
    const db::Database database(
        "check", io::read_fasta_file(database_path(dir), aa));
    const std::vector<std::size_t> sample = reference_sample(queries, seed);
    const std::size_t mismatched = std::max(
        unstable,
        count_bad_queries(queries, database, first_hits, sample,
                          exhaustive_reference(queries, database, sample)));
    const double fail_frac =
        ratio(static_cast<double>(failed_tasks), static_cast<double>(tasks));

    const double search_gcups =
        median_of(plain, [](const SearchResult& r) { return r.gcups(); });
    std::vector<Metric> metrics;
    if (!traced) {
        metrics = {
            {"wall_s", median_of(plain, [](const SearchResult& r) {
                 return r.t.wall_s;
             }), "s"},
            {"setup_s", median(setups), "s"},
            {"search_gcups", search_gcups, "GCUPS"},
            {"cpu_s", median_of(plain, [](const SearchResult& r) {
                 return r.t.cpu_s;
             }), "s"},
            {"peak_rss_mb", first_rss_mb, "MB"},
        };
        std::cout << "  task_fail_frac = " << json_number(fail_frac)
                  << " ratio\n  hits_mismatch = " << mismatched
                  << " count\n  searches = " << plain.size() << '\n';
    } else {
        const ProbeResult probe = probe_scanner(dir);
        const double n = static_cast<double>(kSlaves);
        // Median over the traced searches of one field, of the sample or
        // of its stage times.
        auto med = [&](double TracedSample::*field) {
            return median_of(tracedv, [field](const TracedSample& s) {
                return s.*field;
            });
        };
        auto stage = [&](double StageTimes::*field) {
            return median_of(tracedv, [field](const TracedSample& s) {
                return s.t.*field;
            });
        };
        std::vector<double> task_s;
        std::vector<double> gaps;
        double inbox_max = 0.0;
        for (const TracedSample& s : tracedv) {
            task_s.insert(task_s.end(), s.task_s.begin(), s.task_s.end());
            gaps.insert(gaps.end(), s.dispatch_gap_s.begin(),
                        s.dispatch_gap_s.end());
            inbox_max = std::max(inbox_max, s.inbox_depth_max);
        }
        const double gcups_per_pe =
            median_of(tracedv, [](const TracedSample& s) {
                return ratio(s.engine_cells, s.engine_busy_s) / 1e9;
            });
        const double file_mb =
            static_cast<double>(
                std::filesystem::file_size(queries_path(dir)) +
                std::filesystem::file_size(database_path(dir))) /
            1e6;
        auto search_s = [](const SearchResult& r) { return r.t.search_s; };
        const double plain_search = median_of(plain, search_s);
        auto ledger = [&](auto part) {
            return median_of(plain, [&](const SearchResult& r) {
                return ratio(part(r.t), r.t.wall_s);
            });
        };
        metrics = {
            {"io.read_s", stage(&StageTimes::read_s), "s"},
            {"io.read_mb_per_s", ratio(file_mb, stage(&StageTimes::read_s)),
             "MB/s"},
            {"io.write_s", stage(&StageTimes::write_s), "s"},
            {"db.pack_s", stage(&StageTimes::pack_s), "s"},
            {"db.interleave_s", stage(&StageTimes::interleave_s), "s"},
            {"align.exact_gcups", probe.exact_gcups, "GCUPS"},
            {"align.funnel_gcups", probe.funnel_gcups, "GCUPS"},
            {"align.filter_selectivity", med(&TracedSample::selectivity),
             "ratio"},
            {"align.filter_offs", med(&TracedSample::filter_offs), "count"},
            {"align.escalations16", med(&TracedSample::escalations16),
             "count"},
            {"align.gumbel_fit_s", stage(&StageTimes::gumbel_s), "s"},
            {"engine.tasks", med(&TracedSample::engine_tasks), "count"},
            {"engine.busy_s", med(&TracedSample::engine_busy_s), "s"},
            {"engine.task_s.p50", percentile(task_s, 50), "s"},
            {"engine.task_s.p90", percentile(task_s, 90), "s"},
            {"engine.gcups_per_pe", gcups_per_pe, "GCUPS"},
            {"engine.scan_eff", ratio(gcups_per_pe, probe.funnel_gcups),
             "ratio"},
            {"core.packages", med(&TracedSample::packages), "count"},
            {"core.pkg_tasks_mean", med(&TracedSample::pkg_tasks_mean),
             "count"},
            {"core.replicas", med(&TracedSample::replicas), "count"},
            {"core.rate_err", med(&TracedSample::rate_err), "ratio"},
            {"runtime.pe_idle_frac", med(&TracedSample::pe_idle_frac),
             "ratio"},
            {"runtime.imbalance", med(&TracedSample::imbalance), "ratio"},
            {"runtime.tail_s", med(&TracedSample::tail_s), "s"},
            {"runtime.waste_frac", med(&TracedSample::waste_frac), "ratio"},
            {"runtime.dispatch_gap_s.p50", percentile(gaps, 50), "s"},
            {"runtime.parallel_eff",
             ratio(med(&TracedSample::gcups), n * probe.funnel_gcups),
             "ratio"},
            {"net.socket_overhead_frac",
             inproc.empty()
                 ? 0.0
                 : ratio(plain_search, median_of(inproc, search_s)) - 1.0,
             "ratio"},
            {"net.handshake_s", stage(&StageTimes::handshake_s), "s"},
            {"net.master_inbox_depth.max", inbox_max, "count"},
            {"obs.trace_overhead_frac",
             ratio(stage(&StageTimes::search_s), plain_search) - 1.0,
             "ratio"},
            {"ledger.setup_frac",
             ledger([](const StageTimes& t) { return t.setup_s(); }), "ratio"},
            {"ledger.search_frac",
             ledger([](const StageTimes& t) { return t.search_s; }), "ratio"},
            {"ledger.output_frac",
             ledger([](const StageTimes& t) { return t.output_s(); }), "ratio"},
            {"ledger.unattributed_frac",
             ledger([](const StageTimes& t) {
                 return t.wall_s - t.setup_s() - t.search_s - t.output_s();
             }),
             "ratio"},
            {"task_fail_frac", fail_frac, "ratio"},
            {"hits_mismatch", static_cast<double>(mismatched), "count"},
        };
    }

    const HostInfo host = host_info();
    std::cout << "provenance: {\"workload\": " << json_string(w.name)
              << ", \"seed\": " << seed << ", \"searches\": " << plain.size()
              << ", \"traced_searches\": " << tracedv.size()
              << ", \"search_gcups\": " << json_number(search_gcups)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"isa\": "
              << json_string(simd::to_string(simd::best_supported()))
              << ", \"cpu\": " << json_string(host.cpu_model)
              << ", \"compiler\": " << json_string(host.compiler)
              << ", \"build_flags\": " << json_string(host.build_flags)
              << ", \"git_sha\": " << json_string(host.git_sha) << "}\n";
    print_result(mismatched == 0, tasks, failed_tasks, metrics);
    return mismatched == 0 ? 0 : 1;
}

int cmd_parity(const ArgParser& args) {
    const std::string dir = args.get("dir");
    run_search(Transport::InProcess, dir, dir + "/bench_inproc.tsv",
               nullptr);
    run_search(Transport::Socket, dir, dir + "/bench_socket.tsv", nullptr);
    return 0;
}

int cmd_selftest(const ArgParser& args) {
    const std::string dir = args.get("dir");
    generate_inputs(workload_by_name("parity"), 7, dir);
    const SearchResult r =
        run_search(Transport::InProcess, dir, dir + "/hits.tsv", nullptr);
    const align::Alphabet& aa = align::Alphabet::protein();
    const auto queries = io::read_fasta_file(queries_path(dir), aa);
    const db::Database database(
        "check", io::read_fasta_file(database_path(dir), aa));
    const std::vector<std::size_t> sample = reference_sample(queries, 7, 1);
    const auto reference = exhaustive_reference(queries, database, sample);
    const std::vector<std::vector<core::Hit>>& good = r.report.hits;

    // A query outside the reference sample, so only the rescoring and
    // list-shape checks can catch its corruptions.
    std::size_t free_q = 0;
    while (std::find(sample.begin(), sample.end(), free_q) != sample.end()) {
        ++free_q;
    }
    // For a sampled query: the best subject outside its true top-k, with
    // its true score. Put in place of the k-th hit it rescores correctly
    // and keeps the order, so only the exhaustive reference can tell.
    const std::size_t ref_q = sample.front();
    core::Hit runner_up{0, -1};
    for (std::uint32_t i = 0; i < database.size(); ++i) {
        const auto& top = good[ref_q];
        if (std::any_of(top.begin(), top.end(),
                        [i](const core::Hit& g) { return g.db_index == i; })) {
            continue;
        }
        const align::Score s =
            align::sw_score_affine(queries[ref_q].residues,
                                   database[i].residues, search_matrix(), kGap);
        if (s > runner_up.score) runner_up = core::Hit{i, s};
    }

    using Hits = std::vector<std::vector<core::Hit>>;
    const auto n = static_cast<std::uint32_t>(database.size());
    const std::vector<std::pair<const char*, std::function<void(Hits&)>>>
        cases = {
            {"score off by one", [&](Hits& h) { h[free_q][0].score += 1; }},
            {"subject swapped",
             [&](Hits& h) {
                 h[free_q][0].db_index = (h[free_q][0].db_index + 1) % n;
             }},
            {"subject out of range",
             [&](Hits& h) { h[free_q][1].db_index = n; }},
            {"hit dropped", [&](Hits& h) { h[free_q].pop_back(); }},
            {"order reversed",
             [&](Hits& h) {
                 std::reverse(h[free_q].begin(), h[free_q].end());
             }},
            {"hit duplicated", [&](Hits& h) { h[free_q][1] = h[free_q][0]; }},
            {"k-th hit replaced by the runner-up",
             [&](Hits& h) { h[ref_q].back() = runner_up; }},
        };
    int failures = 0;
    const std::size_t clean =
        count_bad_queries(queries, database, good, sample, reference);
    std::cout << "clean hits: " << clean << " bad queries\n";
    if (clean != 0) ++failures;
    for (const auto& [name, corrupt] : cases) {
        Hits hits = good;
        corrupt(hits);
        const std::size_t bad =
            count_bad_queries(queries, database, hits, sample, reference);
        std::cout << name << ": " << bad << " bad queries\n";
        if (bad != 1) ++failures;
    }
    std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
              << '\n';
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args("bench_e2e", "whole-search benchmark");
    args.add_positional("command", "generate | search | parity | selftest");
    args.add_option("workload", "paper40 | homolog | short_socket", "paper40");
    args.add_option("seed", "input seed", "1");
    args.add_option("dir", "directory of the workload's files", ".");
    args.add_option("seconds", "measured seconds", "10");
    args.add_option("trace", "1 = traced run, per-layer metrics", "0");
    try {
        if (!args.parse(argc, argv)) return 0;
        const std::string cmd = args.get("command");
        if (cmd == "generate") return cmd_generate(args);
        if (cmd == "search") return cmd_search(args);
        if (cmd == "parity") return cmd_parity(args);
        if (cmd == "selftest") return cmd_selftest(args);
        std::cerr << "error: unknown command " << cmd << '\n';
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
