#include "align/db_scan.hpp"

#include <cstdlib>

#include "util/error.hpp"

namespace swh::align {

DatabaseScanner::DatabaseScanner(const StripedAligner& aligner,
                                 PackedSubjects subjects, std::size_t chunk,
                                 InterleavedCohorts cohorts,
                                 const std::atomic<Score>* threshold)
    : aligner_(&aligner),
      subjects_(subjects),
      chunk_(chunk),
      cohorts_(cohorts),
      threshold_(threshold) {
    SWH_REQUIRE(chunk_ >= 1, "scan chunk must be at least 1");
    SWH_REQUIRE(subjects_.count == 0 || subjects_.arena != nullptr,
                "packed view has subjects but no arena");
    // The one-time validation that lets every kernel call below run
    // with the per-residue alphabet check compiled out.
    SWH_REQUIRE(subjects_.count == 0 ||
                    static_cast<std::size_t>(subjects_.max_code) <
                        aligner.matrix().alphabet().size(),
                "packed residues outside the aligner's alphabet");
    if (cohorts_.count == 0) return;

    SWH_REQUIRE(cohorts_.arena != nullptr && cohorts_.cohorts != nullptr,
                "cohort view has cohorts but no arena");
    SWH_REQUIRE(cohorts_.members != nullptr,
                "cohort view has cohorts but no member table");
    SWH_REQUIRE(aligner.interseq() != nullptr,
                "cohort scan needs an inter-sequence-capable aligner");
    SWH_REQUIRE(cohorts_.lanes == lanes_u8(aligner.isa()),
                "cohort width does not match the aligner's u8 lane count");
    SWH_REQUIRE(cohorts_.lanes <= 64,
                "cohort width exceeds the 64-lane overflow mask");
    SWH_REQUIRE(cohorts_.pad_code == InterseqProfile::kPadCode,
                "cohort padding sentinel mismatch");
    cohort_mode_ = true;

    // Precompute the per-cohort route once: the scan itself then
    // branches on a byte. Inter-sequence pays off when the cohort is
    // full enough for the lane-parallel win to survive the pad cells
    // (the bar shrinks with query length, see min_fill_pct). The
    // kernel's query tiling keeps its DP rows cache-resident, so no
    // query length forces the striped fallback by itself.
    const std::size_t qlen = aligner.interseq()->query_len;
    const auto w = static_cast<std::uint32_t>(cohorts_.lanes);
    best_entries_ = w;
    choice_.resize(cohorts_.count, CohortPath::kStriped);
    if (qlen > 0) {
        const std::uint64_t bar = min_fill_pct(qlen);
        for (std::size_t c = 0; c < cohorts_.count; ++c) {
            const CohortDesc& d = cohorts_.cohorts[c];
            best_entries_ = std::max<std::size_t>(
                best_entries_, w + d.subjects - d.lanes_used);
            const std::uint64_t cells =
                std::uint64_t{d.columns} *
                static_cast<std::uint64_t>(cohorts_.lanes);
            if (d.columns > 0 && d.residues * 100 >= cells * bar) {
                choice_[c] = CohortPath::kInterseq;
            }
        }
    }

    if (threshold_ == nullptr || cohorts_.count <= kPrimeCohorts) return;
    // Threshold priming: scan the cohorts most likely to hold the top
    // scorers first, so the dynamic threshold reaches a useful value
    // before the bulk of the scan. Homologs of the query cluster near
    // its length, so rank cohorts by |mean subject length - query
    // length| and pull the best kPrimeCohorts to the front. The
    // remainder follows in ascending column order — shortest cohorts
    // carry the cheapest sweeps and the best pruning odds, so the
    // sweep cost model (claim_cohorts) learns on cheap cohorts before
    // the expensive ones arrive.
    const auto want_len = static_cast<std::int64_t>(aligner.query().size());
    std::vector<std::uint32_t> ranked(cohorts_.count);
    for (std::size_t c = 0; c < cohorts_.count; ++c) {
        ranked[c] = static_cast<std::uint32_t>(c);
    }
    const auto dist = [&](std::uint32_t c) {
        const CohortDesc& d = cohorts_.cohorts[c];
        const auto mean = static_cast<std::int64_t>(
            d.residues / std::max<std::uint32_t>(1, d.subjects));
        return std::llabs(mean - want_len);
    };
    std::partial_sort(ranked.begin(), ranked.begin() + kPrimeCohorts,
                      ranked.end(), [&](std::uint32_t a, std::uint32_t b) {
                          const auto da = dist(a), db = dist(b);
                          return da != db ? da < db : a < b;
                      });
    // Primed cohorts run best-match first — the sooner the likeliest
    // cohort's exact scores land, the sooner the threshold bites.
    std::vector<std::uint8_t> primed(cohorts_.count, 0);
    prime_order_.reserve(cohorts_.count);
    for (std::size_t p = 0; p < kPrimeCohorts; ++p) {
        primed[ranked[p]] = 1;
    }
    prime_order_.assign(ranked.begin(), ranked.begin() + kPrimeCohorts);
    // The layout orders cohorts longest-first; walk it backwards for
    // the ascending-columns remainder.
    for (std::uint32_t c = static_cast<std::uint32_t>(cohorts_.count); c > 0;
         --c) {
        if (!primed[c - 1]) prime_order_.push_back(c - 1);
    }
}

void DatabaseScanner::credit_dispatch(const WorkerTallies& t) {
    if (t.cohorts_filtered > 0) {
        cohorts_filtered_.fetch_add(t.cohorts_filtered,
                                    std::memory_order_relaxed);
    }
    if (t.rebounds16 > 0) {
        rebounds16_.fetch_add(t.rebounds16, std::memory_order_relaxed);
    }
    if (t.pruned > 0) {
        subjects_pruned_.fetch_add(t.pruned, std::memory_order_relaxed);
    }
    if (t.filter_offs > 0) {
        filter_offs_.fetch_add(t.filter_offs, std::memory_order_relaxed);
    }
    if (t.lanes_filtered > 0) {
        lanes_filtered_.fetch_add(t.lanes_filtered, std::memory_order_relaxed);
    }
    if (t.cohorts_interseq > 0) {
        cohorts_interseq_.fetch_add(t.cohorts_interseq,
                                    std::memory_order_relaxed);
    }
    if (t.cohorts_streamed > 0) {
        cohorts_streamed_.fetch_add(t.cohorts_streamed,
                                    std::memory_order_relaxed);
    }
    if (t.cohorts_striped > 0) {
        cohorts_striped_.fetch_add(t.cohorts_striped,
                                   std::memory_order_relaxed);
    }
    if (t.repacks > 0) {
        repacks_.fetch_add(t.repacks, std::memory_order_relaxed);
    }
    if (t.escalations16 > 0) {
        escalations16_.fetch_add(t.escalations16, std::memory_order_relaxed);
    }
    if (t.subjects_interseq > 0) {
        subjects_interseq_.fetch_add(t.subjects_interseq,
                                     std::memory_order_relaxed);
    }
    if (t.subjects_striped > 0) {
        subjects_striped_.fetch_add(t.subjects_striped,
                                    std::memory_order_relaxed);
    }
}

DatabaseScanner::DispatchStats DatabaseScanner::dispatch_stats() const {
    return DispatchStats{
        cohorts_interseq_.load(std::memory_order_relaxed),
        cohorts_streamed_.load(std::memory_order_relaxed),
        cohorts_striped_.load(std::memory_order_relaxed),
        repacks_.load(std::memory_order_relaxed),
        escalations16_.load(std::memory_order_relaxed),
        subjects_interseq_.load(std::memory_order_relaxed),
        subjects_striped_.load(std::memory_order_relaxed)};
}

DatabaseScanner::FilterStats DatabaseScanner::filter_stats() const {
    return FilterStats{cohorts_filtered_.load(std::memory_order_relaxed),
                       rebounds16_.load(std::memory_order_relaxed),
                       subjects_pruned_.load(std::memory_order_relaxed),
                       filter_offs_.load(std::memory_order_relaxed),
                       lanes_filtered_.load(std::memory_order_relaxed)};
}

}  // namespace swh::align
