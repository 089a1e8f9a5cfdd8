#pragma once

// Three-stage funnel scan over a packed subject arena.
//
// Stage 1 (optional, cohort mode only): an allocation-free ungapped
// inter-sequence prefilter (align/ungapped.hpp) sweeps each cohort and
// turns the per-lane ungapped maxima into provable upper bounds on the
// gapped scores via the per-query gap-slack bound. Lanes whose bound
// falls strictly below the caller-published pruning threshold — fed
// back from the running k-th best exact score — are skipped entirely;
// anything unprovable (a lane that saturated the 8-bit sweep) survives
// into the exact stage, so the surviving top-k is bit-identical to an
// exhaustive scan. See DESIGN.md "Prefilter funnel" for the soundness
// argument.
//
// Stage 2 runs every survivor through an 8-bit exact kernel and defers
// the (rare) overflowed ones; stage 3 settles the deferred batch — in
// cohort mode by re-packing length-adjacent groups into dense scratch
// cohorts for one i16 inter-sequence pass each (scalar int32 for the
// rare lane that saturates 16 bits too), serial striped i16 only for
// sub-batch remainders and the packed path. Compared with the seed's
// inline 8 -> 16 -> 32 escalation per subject, this keeps the u8
// profile and scratch hot in cache during the bulk of the scan, and
// the batched escalation amortises the wide-kernel memory traffic
// that a per-subject striped rescore pays anew for every subject.
//
// When the caller also provides a lane-interleaved cohort layout (see
// db::PackedDatabase::interleaved and align/interseq.hpp), stage 2
// dispatches adaptively per cohort: well-filled cohorts are scored W
// lanes at a time by the inter-sequence u8 kernel — query-tiled with
// carried column state, so the whole query-length range is eligible —
// while cohorts below the query-length-dependent fill bar (the layout's
// singleton outliers) fall back to the striped kernel per subject. The
// layout keeps cohorts full by streaming several subjects back to back
// through one lane, and the scanner settles, defers and prunes per
// subject: a pruned lane reports every subject it holds. The funnel
// composes the same way: survivors of mostly-pruned cohorts are
// re-packed worker-locally into dense scratch cohorts instead of
// masking dead lanes. Overflowed subjects feed the same deferred
// escalation everywhere, so the emit contract (exactly one settled
// score per non-pruned subject, original db_index) is unchanged.
//
// The scanner consumes non-owning views so swh_align stays independent
// of swh_db (which produces the views, see db::PackedDatabase).

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "align/interseq.hpp"
#include "align/striped.hpp"
#include "align/ungapped.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"

namespace swh::align {

/// Counters of a DatabaseScanner: each worker keeps one record per
/// run_worker call and adds it to the scanner's total at the end
/// (DatabaseScanner::stats, cumulative across workers and resets).
///
/// Exact stage: subjects deferred to a wide rescore count under the
/// kernel that deferred them, pruned subjects under neither.
/// `cohorts_interseq` counts every inter-sequence-scored cohort, worker-
/// side survivor repacks included; `cohorts_streamed` (layout cohorts
/// with several subjects in a lane) is a subset of it.
/// `subjects_interseq` counts every subject the inter-sequence kernel
/// scored, so `subjects_striped` counts only genuine striped fallbacks.
///
/// Stage 1: `cohorts_filtered` counts ungapped u8 sweeps actually run
/// and `lanes_filtered` the used lanes they covered; `subjects_pruned`
/// the subjects proven out of the top-k and skipped; `filter_offs` the
/// cohorts whose sweep the cost model skipped although the threshold
/// was live. Filter-eligible cohorts = cohorts_filtered + filter_offs.
struct ScanStats {
    std::uint64_t cohorts_interseq = 0;
    std::uint64_t cohorts_streamed = 0;
    std::uint64_t cohorts_striped = 0;
    std::uint64_t repacks = 0;  ///< dense survivor cohorts assembled
    /// Dense i16 escalation cohorts the stage-3 drain assembled from
    /// deferred u8-overflow lanes (each replaces up to W serial striped
    /// rescores with one inter-sequence pass).
    std::uint64_t escalations16 = 0;
    std::uint64_t subjects_interseq = 0;
    std::uint64_t subjects_striped = 0;
    std::uint64_t cohorts_filtered = 0;
    std::uint64_t lanes_filtered = 0;
    std::uint64_t subjects_pruned = 0;
    std::uint64_t filter_offs = 0;
    std::uint64_t settled8 = 0;      ///< settled by a u8 kernel
    std::uint64_t settled_wide = 0;  ///< settled by a wide rescore

    ScanStats& operator+=(const ScanStats& o);
};

/// Non-owning view of a packed subject set: one contiguous residue
/// arena plus per-subject offsets/lengths and a scan permutation.
/// Residues are validated at pack time; `max_code` carries the proof,
/// which DatabaseScanner checks once against the query profile so the
/// kernels can skip the per-residue alphabet check.
struct PackedSubjects {
    const Code* arena = nullptr;
    const std::uint64_t* offsets = nullptr;  ///< start of subject i
    const std::uint32_t* lengths = nullptr;
    /// Scan permutation (length-sorted, longest first). Null = identity.
    const std::uint32_t* order = nullptr;
    std::size_t count = 0;
    std::size_t max_length = 0;
    Code max_code = 0;  ///< largest residue code present in the arena

    std::span<const Code> subject(std::size_t i) const {
        return {arena + offsets[i], lengths[i]};
    }
};

/// Thread-safe scan orchestrator: workers claim work from a shared
/// cursor (chunks of subjects, or whole cohorts when a lane-interleaved
/// layout is attached) and run the two-pass scan. One instance per
/// (aligner, database) scan; call run_worker from each worker thread
/// with a thread-private ScanScratch.
class DatabaseScanner {
public:
    static constexpr std::size_t kDefaultChunk = 64;

    /// Baseline minimum real-residue fill of a cohort (percent of
    /// columns * full width) for inter-sequence dispatch at long query
    /// lengths; see min_fill_pct() for the query-length-dependent bar.
    static constexpr std::uint64_t kInterseqMinFillPct = 75;

    /// Full-width fill bar for inter-sequence dispatch as a function of
    /// query length. The interseq kernel pays columns * W cells no
    /// matter how many lanes are real, so it wins only when fill
    /// exceeds ~1/alpha, where alpha is its full-fill advantage over
    /// the striped kernel — measured ~2.4x for short queries, shrinking
    /// towards ~1.3x once the striped kernel's lazy-F overhead
    /// amortises over a long query.
    static constexpr std::uint64_t min_fill_pct(std::size_t qlen) {
        return qlen <= 128 ? 45 : qlen <= 384 ? 60 : kInterseqMinFillPct;
    }

    /// Partial-survivor cutover: when the prefilter leaves an
    /// interseq-choice cohort with at most 1/kFunnelStripedCutover of
    /// its used lanes, running the full-width kernel on it would waste
    /// most of its fixed cost on dead lanes. The survivors are instead
    /// batched worker-locally and re-packed W at a time into a dense
    /// scratch cohort for the inter-sequence kernel (see flush_repack);
    /// only the sub-width remainder of a worker's final batch still
    /// falls back to the striped kernel, when it is too small to meet
    /// the fill bar.
    static constexpr std::uint32_t kFunnelStripedCutover = 4;

    /// Minimum deferred-overflow group size before the stage-3 drain
    /// re-packs it into a dense cohort for one i16
    /// inter-sequence pass instead of serial striped i16 rescores. The
    /// cohort pass pays a fixed full-width sweep whether or not every
    /// lane is real, but runs ~5x more lane-cells/s on long queries
    /// (the striped i16 profile re-streams from L2+ for every subject;
    /// the inter-sequence pass reads one 32-byte LUT row per cell) and
    /// the lo-half kernel variant halves the fixed cost again for
    /// half-width groups — break-even measures ~6 lanes half-width,
    /// ~13 full-width. Deferred lanes are homolog families of similar
    /// length, so groups at this bar are the common case.
    static constexpr std::size_t kEscalateBatchMin = 8;

    /// Query rows per prefilter tile. Long queries are bounded tile by
    /// tile and the per-lane tile bounds summed (sound — see
    /// align/ungapped.hpp): each tile's two DP rows stay L1-resident
    /// where a monolithic sweep of a 500+ residue query spills, and a
    /// tile's maximum rarely saturates the 8-bit kernel, so few lanes
    /// lose their bound to saturation even for long subjects.
    static constexpr std::size_t kFilterChunkRows = 256;

    /// Lane bound of a prefilter sweep where saturation left none.
    static constexpr Score kUnbounded = std::numeric_limits<Score>::max();

    /// Cohorts scanned first when the prefilter is armed: the ones
    /// whose subject lengths sit closest to the query's, where true
    /// homologs — the scores that drive the pruning threshold up — are
    /// most likely to live. Priming turns the dynamic threshold from a
    /// slow ramp into a near-final value for the bulk of the scan; any
    /// scan order yields the same top-k (see run_worker).
    static constexpr std::size_t kPrimeCohorts = 4;

    /// Validates once that every packed residue fits the aligner's
    /// profile alphabet (throws ContractError otherwise) — the per-
    /// subject kernel calls then run with the check compiled out. If
    /// `cohorts` is non-empty, the aligner must have an inter-sequence
    /// profile and the cohort width must match its u8 lane count; the
    /// per-cohort kernel choice is precomputed here.
    ///
    /// `threshold`, when non-null, arms the stage-1 prefilter (cohort
    /// mode only; inert otherwise): each cohort loads the current value
    /// — the caller keeps it at the running k-th best exact score, or
    /// any value <= 0 / engines::TopK::kNoThreshold while fewer than k
    /// hits exist — and prunes lanes whose gap-slack score bound falls
    /// strictly below it. The atomic must only ever increase and must
    /// outlive the scanner; monotonicity is what makes a stale read
    /// safe (a lower threshold only prunes less).
    DatabaseScanner(const StripedAligner& aligner, PackedSubjects subjects,
                    std::size_t chunk = kDefaultChunk,
                    InterleavedCohorts cohorts = {},
                    const std::atomic<Score>* threshold = nullptr);

    /// Claims work until the database is exhausted or `emit` asks to
    /// stop. `emit(db_index, length, score) -> bool` is called exactly
    /// once per settled subject — in scan order for stage-2 subjects,
    /// then for this worker's deferred overflow batch (drained after
    /// every claim when the prefilter is armed: the deferred lanes are
    /// the likely top scorers, and settling them early is what feeds
    /// the pruning threshold while the scan is still young); `db_index`
    /// is always the ORIGINAL database index regardless of scan order.
    /// `pruned(db_index, length) -> bool` is called exactly once per
    /// subject the prefilter proved out of the top-k (never called when
    /// the prefilter is unarmed). Once either callback returns false
    /// the worker settles no further subjects (the deferred batch
    /// included). Returns false iff a callback returned false (scan
    /// cancelled).
    template <class EmitFn, class PrunedFn>
    SWH_HOT_PATH bool run_worker(ScanScratch& scratch, EmitFn&& emit,
                                 PrunedFn&& pruned) {
        ScanStats t;
        std::vector<std::uint32_t> overflow;
        bool keep = cohort_mode_
                        ? claim_cohorts(scratch, emit, pruned, overflow, t)
                        : claim_subjects(scratch, emit, overflow, t);
        // Final stage (packed path only — cohort mode drains its own
        // batch, see drain_overflow): settle the deferred overflow
        // batch with the wide kernels.
        for (const std::uint32_t idx : overflow) {
            if (!keep) break;
            const Score s = aligner_->rescore_wide(subjects_.subject(idx),
                                                   scratch, /*trusted=*/true);
            keep = emit(idx, subjects_.lengths[idx], s);
            ++t.settled_wide;
        }
        // Emit contract: unless a callback cancelled the scan, every
        // subject this worker claimed either settles exactly once — in
        // stage 2 for the in-range scores (settled8), in a wide rescore
        // (per-claim drain or the final batch) for the deferred rest —
        // or is reported pruned exactly once.
        SWH_DCHECK(!keep ||
                       t.settled8 + t.settled_wide ==
                           t.subjects_interseq + t.subjects_striped,
                   "emit contract: one settled score per claimed subject");
        aligner_->credit_runs8(t.settled8);
        {
            LockGuard lock(stats_mu_);
            stats_ += t;
        }
        return keep;
    }

    /// Exhaustive-caller convenience: no pruning observer. With the
    /// prefilter armed the pruned subjects are still skipped — they are
    /// just not reported.
    template <class EmitFn>
    SWH_HOT_PATH bool run_worker(ScanScratch& scratch, EmitFn&& emit) {
        return run_worker(scratch, emit,
                          [](std::uint32_t, std::uint32_t) { return true; });
    }

    /// Rewinds the shared cursor for another scan of the same subjects.
    void reset() { next_.store(0, std::memory_order_relaxed); }

    bool cohort_mode() const { return cohort_mode_; }

    /// True when the stage-1 prefilter can run: a threshold feed is
    /// attached and the scan is in cohort mode (the ungapped kernels
    /// share the cohort geometry). Whether it actually prunes depends
    /// on the threshold value at each cohort.
    bool prefilter_armed() const {
        return threshold_ != nullptr && cohort_mode_;
    }

    /// Every worker's counters so far (see ScanStats).
    ScanStats stats() const {
        LockGuard lock(stats_mu_);
        return stats_;
    }

private:
    /// Exact-stage route precomputed per cohort (see choice_).
    enum class CohortPath : std::uint8_t {
        kStriped = 0,   ///< per-subject striped fallback (low fill)
        kInterseq = 1,  ///< inter-sequence u8
    };

    /// One worker's stage-1 cost model: decides, cohort by cohort,
    /// whether the ungapped sweep runs. It measures online, with two
    /// steady_clock reads around each kernel call, the sweep's time
    /// per cohort cell (columns x W), the exact stage's time per unit
    /// of its work — cohort cells on the inter-sequence routes (the
    /// kernel pays the full width), subject residues on the striped
    /// one — and the share of a cohort's exact cost the last sweep on
    /// its route saved. The sweep runs while saved share x exact cost
    /// exceeds the sweep's cost; an unmeasured share counts as 1 (the
    /// best a sweep can do), an unmeasured rate as paying. Once the
    /// model says no, the worker skips 4, then 16, 64, ... cohorts
    /// between probe sweeps — and probes at once when tau climbs to
    /// where the last rejected sweep would have paid (retry_tau): tau
    /// only rises, so pruning power only grows. Sound by construction —
    /// skipping the sweep only lets lanes survive into the exact stage.
    struct SweepModel {
        using Clock = std::chrono::steady_clock;
        /// Growth of the skip run between probes. On short queries a
        /// sweep costs ~0.7x the exact inter-sequence pass it precedes
        /// (AVX-512), so on a 16-cohort scan doubling still spends ~8%
        /// on probes that prune nothing; quadrupling halves that, and a
        /// wrong "no" still costs only the next four cohorts.
        static constexpr std::uint64_t kProbeBackoff = 4;

        double sweep_ns = 0.0;  ///< per cohort cell; 0 = not measured
        /// Exact-stage time per unit of work, by CohortPath.
        double exact_ns[2] = {};
        /// Saved share of the exact cost, by CohortPath; < 0 = unknown.
        double saved[2] = {-1.0, -1.0};
        std::uint64_t skip = 0;     ///< cohorts left before the next probe
        std::uint64_t backoff = 0;  ///< current skip run; 0 = paying
        /// Threshold at which the last rejected sweep would have paid.
        Score retry_tau = kUnbounded;

        static double ns_since(Clock::time_point t0) {
            return std::chrono::duration<double, std::nano>(Clock::now() -
                                                            t0)
                .count();
        }

        /// Running average that follows a drifting rate; a sample is
        /// capped at twice the estimate, so one preempted kernel call
        /// moves it by at most 1.5x.
        static void learn(double& avg, double sample) {
            avg = avg > 0.0 ? 0.5 * (avg + std::min(sample, 2.0 * avg))
                            : sample;
        }

        bool pays(CohortPath path, const CohortDesc& d, double cells) const {
            const auto p = static_cast<int>(path);
            if (sweep_ns <= 0.0 || exact_ns[p] <= 0.0) return true;
            const double share = saved[p] < 0.0 ? 1.0 : saved[p];
            const double work = path == CohortPath::kStriped
                                    ? static_cast<double>(d.residues)
                                    : cells;
            return share * exact_ns[p] * work > sweep_ns * cells;
        }

        /// Sweep cohort d? Yes while the sweep pays, else as a probe
        /// once tau reaches retry_tau or the current backoff has run
        /// out.
        bool wants(CohortPath path, const CohortDesc& d, double cells,
                   Score tau) {
            if (pays(path, d, cells)) {
                backoff = 0;
                skip = 0;
                return true;
            }
            if (tau >= retry_tau) return true;
            if (skip > 0) {
                --skip;
                return false;
            }
            if (backoff == 0) {
                // The last sweep did not pay: this cohort is the first
                // of kProbeBackoff skipped before the first probe.
                backoff = kProbeBackoff;
                skip = backoff - 1;
                return false;
            }
            // Probe; if it fails too, kProbeBackoff times as many
            // cohorts are skipped before the next one.
            backoff *= kProbeBackoff;
            skip = backoff;
            return true;
        }

        void swept(CohortPath path, double cells, double ns, double share) {
            learn(sweep_ns, ns / cells);
            saved[static_cast<int>(path)] = share;
        }

        /// After a sweep the model rejects: the lowest threshold at
        /// which its cohort would have kept at most a quarter of its
        /// lanes (the repack cutover, where an inter-sequence sweep
        /// starts to save) — or none, if it already did — so tau
        /// climbing there, say once the scan reaches a homolog family
        /// the primed cohorts missed, triggers a probe at once.
        /// Reorders `bound`.
        void rejected(Score* bound, std::uint32_t lanes, Score tau) {
            std::sort(bound, bound + lanes, std::greater<>());
            Score at = bound[lanes / kFunnelStripedCutover];
            if (at < tau) at = bound[0];
            retry_tau = at < tau || at == kUnbounded ? kUnbounded : at + 1;
        }

        void exact(CohortPath path, double ns, double units) {
            if (units > 0.0) {
                learn(exact_ns[static_cast<int>(path)], ns / units);
            }
        }
    };

    std::uint32_t slot_index(std::size_t slot) const {
        return subjects_.order != nullptr ? subjects_.order[slot]
                                          : static_cast<std::uint32_t>(slot);
    }

    /// Lane of member k of cohort d.
    std::uint32_t member_lane(const CohortDesc& d, std::uint32_t k) const {
        return cohorts_.members[d.first_member + k].lane;
    }

    /// Original database index of member k of cohort d.
    std::uint32_t member_index(const CohortDesc& d, std::uint32_t k) const {
        return slot_index(cohorts_.members[d.first_member + k].slot);
    }

    /// sw_interseq_u8's result entry of member k: the lane heads hold
    /// entries [0, lanes_used) of [0, W), the followers follow at W in
    /// the member table's own (column, lane) order.
    std::uint32_t best_entry(const CohortDesc& d, std::uint32_t k) const {
        return k < d.lanes_used
                   ? k
                   : k + static_cast<std::uint32_t>(cohorts_.lanes) -
                         d.lanes_used;
    }

    /// Legacy claim unit: chunks of scan-order subjects, striped u8.
    template <class EmitFn>
    SWH_HOT_PATH bool claim_subjects(ScanScratch& scratch, EmitFn&& emit,
                        std::vector<std::uint32_t>& overflow,
                        ScanStats& t) {
        bool keep = true;
        const std::size_t n = subjects_.count;
        while (keep) {
            const std::size_t begin =
                next_.fetch_add(chunk_, std::memory_order_relaxed);
            if (begin >= n) break;
            const std::size_t end = std::min(begin + chunk_, n);
            for (std::size_t slot = begin; slot < end && keep; ++slot) {
                keep = score_striped(slot_index(slot), scratch, emit, overflow,
                                     t);
            }
        }
        return keep;
    }

    /// Stage-1 prefilter over one cohort: returns the survivor lane
    /// mask (within `used`). Conservative by construction — a lane is
    /// cleared only when its gap-slack chain bound (align/ungapped.hpp)
    /// provably falls strictly below `tau`; u8-saturated lanes always
    /// survive (the exact stage escalates them). `bound[l]` receives
    /// each used lane's proven bound, kUnbounded where saturation left
    /// none.
    SWH_HOT_PATH std::uint64_t filter_cohort(const CohortDesc& d,
                                             std::uint64_t used, Score tau,
                                             ScanScratch& scratch,
                                             Score* bound, ScanStats& t) {
        ++t.cohorts_filtered;
        t.lanes_filtered += d.lanes_used;
        std::uint8_t bound8[64];
        const Code* cols = cohorts_.arena + d.offset;
        const std::size_t qlen = aligner_->interseq()->query_len;
        // Bound balanced tiles of at most kFilterChunkRows rows each and
        // sum per lane (align/ungapped.hpp) — each tile's DP state stays
        // L1-resident and its bound in u8 range; a query of up to
        // kFilterChunkRows rows is one tile. The summed bound loosens
        // with tile count (each junction forgoes a link charge), so
        // against subjects of comparable length it stops pruning — the
        // sweep cost model in claim_cohorts stops paying for it there;
        // tightening the bound here does not (a single-tile i16 sweep
        // was tried and measures ~40% SLOWER per cohort than the exact
        // inter-sequence u8 kernel it feeds, while still pruning
        // nothing long).
        const std::size_t tiles = std::max<std::size_t>(
            1, (qlen + kFilterChunkRows - 1) / kFilterChunkRows);
        const std::size_t rows = (qlen + tiles - 1) / tiles;
        Score acc[64] = {};
        std::uint64_t sat = 0;
        for (std::size_t r0 = 0; r0 < qlen; r0 += rows) {
            sat |= sw_ungapped_interseq_u8(
                *aligner_->interseq(), cols, d.columns, aligner_->gap(),
                aligner_->isa(), scratch, bound8, r0, r0 + rows);
            for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
                acc[l] += static_cast<Score>(bound8[l]);
            }
        }
        std::uint64_t survive = sat;
        for (std::uint32_t l = 0; l < d.lanes_used; ++l) {
            if (acc[l] >= tau) survive |= std::uint64_t{1} << l;
            bound[l] = (sat >> l) & 1 ? kUnbounded : acc[l];
        }
        return survive & used;
    }

    /// Cohort claim unit: whole cohorts of the interleaved layout.
    /// Stage 1 prunes lanes when the threshold feed is live and the
    /// worker's SweepModel expects the sweep to pay for itself, stage 2
    /// exact-scores the survivors with the route from choice_ —
    /// inter-sequence for well-filled cohorts, per-subject striped for
    /// the low-fill rest — batching the survivors of mostly-pruned
    /// interseq cohorts into dense repacked cohorts instead of masking
    /// dead lanes.
    template <class EmitFn, class PrunedFn>
    SWH_HOT_PATH bool claim_cohorts(ScanScratch& scratch, EmitFn&& emit,
                                    PrunedFn&& pruned,
                       std::vector<std::uint32_t>& overflow,
                       ScanStats& t) {
        bool keep = true;
        const std::size_t n = cohorts_.count;
        const auto w = static_cast<std::size_t>(cohorts_.lanes);
        const std::size_t claim = std::max<std::size_t>(1, chunk_ / w);
        // Per-subject results, sized once for the largest cohort.
        std::uint8_t* const best = scratch.subject_best(best_entries_);
        const Score bias = aligner_->interseq()->bias;
        Score bound[64];
        // Survivor batch for the repack path; both vectors stay empty
        // (no allocation) until the prefilter actually starves a
        // cohort below the cutover.
        std::vector<std::uint32_t> pending;
        std::vector<Code> repack;
        SweepModel model;
        while (keep) {
            const std::size_t begin =
                next_.fetch_add(claim, std::memory_order_relaxed);
            if (begin >= n) break;
            const std::size_t end = std::min(begin + claim, n);
            for (std::size_t slot = begin; slot < end && keep; ++slot) {
                const std::size_t c =
                    prime_order_.empty() ? slot : prime_order_[slot];
                const CohortDesc& d = cohorts_.cohorts[c];
                const CohortPath path = choice_[c];
                const double cells = static_cast<double>(d.columns) *
                                     static_cast<double>(w);
                const std::uint64_t used =
                    d.lanes_used >= 64
                        ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << d.lanes_used) - 1;
                std::uint64_t survive = used;
                // Re-read per cohort: the threshold rises as exact hits
                // accumulate, so late cohorts prune harder. tau <= 0
                // (including TopK::kNoThreshold) cannot prune — chain
                // bounds are non-negative.
                const Score tau =
                    threshold_ != nullptr
                        ? threshold_->load(std::memory_order_relaxed)
                        : 0;
                if (tau > 0 && model.wants(path, d, cells, tau)) {
                    const auto t0 = SweepModel::Clock::now();
                    survive =
                        filter_cohort(d, used, tau, scratch, bound, t);
                    const double ns = SweepModel::ns_since(t0);
                    std::uint64_t pruned_residues = 0;
                    // A pruned lane's bound covers every subject in it.
                    for (std::uint32_t k = 0; k < d.subjects && keep; ++k) {
                        if ((survive >> member_lane(d, k)) & 1) continue;
                        const std::uint32_t idx = member_index(d, k);
                        ++t.subjects_pruned;
                        pruned_residues += subjects_.lengths[idx];
                        keep = pruned(idx, subjects_.lengths[idx]);
                    }
                    if (!keep) break;
                    // Share of this cohort's exact cost the sweep saved.
                    // Striped: the pruned lanes' residues. Inter-
                    // sequence: the kernel pays full width for any
                    // survivor, so nothing unless the survivors fall to
                    // the repack cutover (then they cost their share of
                    // a dense cohort) or to none.
                    const auto nsurv = std::popcount(survive);
                    double share = 0.0;
                    if (path == CohortPath::kStriped) {
                        share = static_cast<double>(pruned_residues) /
                                static_cast<double>(
                                    std::max<std::uint64_t>(1, d.residues));
                    } else if (static_cast<std::uint32_t>(nsurv) *
                                   kFunnelStripedCutover <=
                               d.lanes_used) {
                        share = 1.0 - static_cast<double>(nsurv) /
                                          static_cast<double>(w);
                    }
                    model.swept(path, cells, ns, share);
                    if (!model.pays(path, d, cells)) {
                        model.rejected(bound, d.lanes_used, tau);
                    }
                    if (survive == 0) continue;
                } else if (tau > 0) {
                    ++t.filter_offs;
                }
                const auto nsurv = static_cast<std::uint32_t>(
                    std::popcount(survive));
                if (path != CohortPath::kStriped &&
                    nsurv * kFunnelStripedCutover > d.lanes_used) {
                    ++t.cohorts_interseq;
                    if (d.starts > 0) ++t.cohorts_streamed;
                    const auto t0 = SweepModel::Clock::now();
                    sw_interseq_u8(*aligner_->interseq(),
                                   cohorts_.arena + d.offset, d.columns,
                                   aligner_->gap(), aligner_->isa(), scratch,
                                   best, cohorts_.starts_of(d));
                    model.exact(path, SweepModel::ns_since(t0), cells);
                    for (std::uint32_t k = 0; k < d.subjects && keep; ++k) {
                        if (((survive >> member_lane(d, k)) & 1) == 0) continue;
                        const std::uint32_t idx = member_index(d, k);
                        const Score score = best[best_entry(d, k)];
                        ++t.subjects_interseq;
                        if (score + bias >= 255) {
                            // NOLINTNEXTLINE(swh-no-alloc-in-hot-path):
                            // deferred batch, bounded by the claim size.
                            overflow.push_back(idx);
                            continue;
                        }
                        ++t.settled8;
                        keep = emit(idx, subjects_.lengths[idx], score);
                    }
                } else if (path != CohortPath::kStriped) {
                    // Below the survivor cutover: running the
                    // full-width kernel would waste most of its fixed
                    // cost on pruned lanes. Batch the survivors; they
                    // are re-packed into dense cohorts at claim end.
                    for (std::uint32_t k = 0; k < d.subjects; ++k) {
                        if ((survive >> member_lane(d, k)) & 1) {
                            // NOLINTNEXTLINE(swh-no-alloc-in-hot-path):
                            // survivor batch; capacity is retained
                            // across flushes, growth amortizes out.
                            pending.push_back(member_index(d, k));
                        }
                    }
                } else {
                    ++t.cohorts_striped;
                    const auto t0 = SweepModel::Clock::now();
                    std::uint64_t residues = 0;
                    for (std::uint32_t k = 0; k < d.subjects && keep; ++k) {
                        if (((survive >> member_lane(d, k)) & 1) == 0) continue;
                        const std::uint32_t idx = member_index(d, k);
                        residues += subjects_.lengths[idx];
                        keep = score_striped(idx, scratch, emit, overflow, t);
                    }
                    model.exact(path, SweepModel::ns_since(t0),
                                static_cast<double>(residues));
                }
            }
            // Full survivor batches become dense repacked cohorts here,
            // before the overflow drain, so their deferred lanes join
            // this claim's wide-rescore pass.
            if (keep && pending.size() >= w) {
                keep = flush_repack(pending, /*force=*/false, scratch,
                                    repack, emit, overflow, t);
            }
            // With the prefilter armed, settle this claim's deferred
            // lanes now instead of at end of run: the u8-overflowed
            // lanes ARE the likely top scorers, and the threshold can
            // only rise once their exact scores reach the caller.
            if (keep && threshold_ != nullptr && !overflow.empty()) {
                keep = drain_overflow(overflow, scratch, repack, emit, t);
            }
        }
        if (keep && !pending.empty()) {
            keep = flush_repack(pending, /*force=*/true, scratch, repack,
                                emit, overflow, t);
        }
        // Exhaustive scans arrive here with the whole run's deferred
        // batch, armed scans with at most the final flush's stragglers;
        // either way the batched drain settles it, so run_worker's
        // serial fallback only ever serves the packed claim_subjects
        // path.
        if (keep && !overflow.empty()) {
            keep = drain_overflow(overflow, scratch, repack, emit, t);
        }
        return keep;
    }

    /// Length grouping shared by the survivor repack and the overflow
    /// drain: sorts `batch` length-descending (index tie-break) and
    /// splits it at length cliffs with a greedy rule — a group of at
    /// most W grows while it keeps kInterseqMinFillPct of its used
    /// lanes filled — so a straggler long subject never forces
    /// thousands of pad columns onto a group of short ones. Calls
    /// `group(at, end, columns, residues) -> bool` for each group
    /// [at, end) of `batch` in order, with the group's longest length
    /// and summed lengths, until it returns false; returns the last
    /// result (true for an empty batch).
    template <class GroupFn>
    SWH_HOT_PATH bool for_each_length_group(std::vector<std::uint32_t>& batch,
                                            GroupFn&& group) const {
        const auto w = static_cast<std::size_t>(cohorts_.lanes);
        std::sort(batch.begin(), batch.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      const std::uint32_t la = subjects_.lengths[a];
                      const std::uint32_t lb = subjects_.lengths[b];
                      return la != lb ? la > lb : a < b;
                  });
        bool keep = true;
        for (std::size_t at = 0; keep && at < batch.size();) {
            const std::uint64_t columns = subjects_.lengths[batch[at]];
            std::uint64_t residues = columns;
            std::size_t end = at + 1;
            while (end < batch.size() && end - at < w) {
                const std::uint64_t next =
                    residues + subjects_.lengths[batch[end]];
                if (next * 100 <
                    columns * (end - at + 1) * kInterseqMinFillPct) {
                    break;
                }
                residues = next;
                ++end;
            }
            keep = group(at, end, columns, residues);
            at = end;
        }
        return keep;
    }

    /// Interleaves `count` <= W subjects (original indices) column-major
    /// into `repack` — lane i holds batch[i], every other cell the pad
    /// sentinel, exactly the layout geometry — and returns the column
    /// count (the longest subject).
    SWH_HOT_PATH std::uint32_t repack_columns(const std::uint32_t* batch,
                                              std::size_t count,
                                              std::vector<Code>& repack) const {
        const auto w = static_cast<std::size_t>(cohorts_.lanes);
        std::uint32_t columns = 0;
        for (std::size_t i = 0; i < count; ++i) {
            columns = std::max(columns, subjects_.lengths[batch[i]]);
        }
        // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): repack scratch is
        // caller-retained; it grows to the largest batch once.
        repack.assign(std::size_t{columns} * w, InterseqProfile::kPadCode);
        for (std::size_t i = 0; i < count; ++i) {
            const std::span<const Code> s = subjects_.subject(batch[i]);
            for (std::size_t j = 0; j < s.size(); ++j) {
                repack[j * w + i] = s[j];
            }
        }
        return columns;
    }

    /// Re-packs batched funnel survivors into dense scratch cohorts and
    /// scores them with the inter-sequence u8 kernel, one length group
    /// (for_each_length_group) at a time — claims arrive primed-first,
    /// so survivor lengths are mixed. Without `force`, only full-width
    /// groups run (a blocked cliff group waits for more survivors);
    /// with `force`, every group is settled — inter-sequence when its
    /// full-width fill still meets the dispatch bar, striped per
    /// subject otherwise (long isolated survivors run near striped
    /// peak anyway). Overflowed lanes join `overflow` for the
    /// wide-rescore stages.
    template <class EmitFn>
    SWH_HOT_PATH bool flush_repack(std::vector<std::uint32_t>& pending,
                                   bool force,
                      ScanScratch& scratch, std::vector<Code>& repack,
                      EmitFn&& emit, std::vector<std::uint32_t>& overflow,
                      ScanStats& t) {
        const auto w = static_cast<std::size_t>(cohorts_.lanes);
        const std::uint64_t bar =
            min_fill_pct(aligner_->interseq()->query_len);
        std::size_t kept = 0;
        const bool keep = for_each_length_group(
            pending, [&](std::size_t at, std::size_t end,
                         std::uint64_t columns, std::uint64_t residues) {
                const std::size_t count = end - at;
                if (!force && count < w) {
                    // Blocked cliff group: keep it pending for later
                    // survivors (order is restored by the next flush's
                    // sort).
                    for (std::size_t i = at; i < end; ++i) {
                        pending[kept++] = pending[i];
                    }
                    return true;
                }
                if (residues * 100 >= columns * w * bar) {
                    return repack_batch(pending.data() + at, count, scratch,
                                        repack, emit, overflow, t);
                }
                bool ok = true;
                for (std::size_t i = at; i < end && ok; ++i) {
                    ok = score_striped(pending[i], scratch, emit, overflow,
                                       t);
                }
                return ok;
            });
        // On cancellation (keep == false) the worker is aborting: the
        // un-flushed tail is abandoned like any other unclaimed work.
        // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): shrinks only.
        pending.resize(keep ? kept : 0);
        return keep;
    }

    /// One dense repacked cohort: `count` subjects (original indices)
    /// interleaved column-major into `repack` and scored together.
    template <class EmitFn>
    SWH_HOT_PATH bool repack_batch(const std::uint32_t* batch,
                                   std::size_t count, ScanScratch& scratch,
                                   std::vector<Code>& repack, EmitFn&& emit,
                                   std::vector<std::uint32_t>& overflow,
                                   ScanStats& t) {
        const std::uint32_t columns = repack_columns(batch, count, repack);
        ++t.repacks;
        ++t.cohorts_interseq;
        std::uint8_t lane_best[64];
        const std::uint64_t ovf = sw_interseq_u8(
            *aligner_->interseq(), repack.data(), columns, aligner_->gap(),
            aligner_->isa(), scratch, lane_best);
        bool keep = true;
        for (std::size_t i = 0; i < count && keep; ++i) {
            const std::uint32_t idx = batch[i];
            ++t.subjects_interseq;
            if ((ovf >> i) & 1) {
                // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): deferred
                // batch, bounded by the repack width.
                overflow.push_back(idx);
                continue;
            }
            ++t.settled8;
            keep = emit(idx, subjects_.lengths[idx],
                        static_cast<Score>(lane_best[i]));
        }
        return keep;
    }

    /// Stage-3 drain of this worker's deferred u8-overflow batch,
    /// grouped by length (for_each_length_group): every group of
    /// kEscalateBatchMin+ is settled by ONE dense i16 inter-sequence
    /// pass (escalate_batch) instead of per-subject striped rescores
    /// — a serial drain of a homolog family re-streams the wide
    /// striped profile from L2+ once per subject, and dominates long-
    /// query scans. Sub-batch remainders keep the serial path, whose
    /// fixed cost is lower. Leaves `overflow` empty.
    template <class EmitFn>
    SWH_HOT_PATH bool drain_overflow(std::vector<std::uint32_t>& overflow,
                        ScanScratch& scratch, std::vector<Code>& repack,
                        EmitFn&& emit, ScanStats& t) {
        const bool keep = for_each_length_group(
            overflow, [&](std::size_t at, std::size_t end, std::uint64_t,
                          std::uint64_t) {
                if (end - at >= kEscalateBatchMin) {
                    return escalate_batch(overflow.data() + at, end - at,
                                          scratch, repack, emit, t);
                }
                bool ok = true;
                for (std::size_t i = at; i < end && ok; ++i) {
                    const std::uint32_t idx = overflow[i];
                    const Score s = aligner_->rescore_wide(
                        subjects_.subject(idx), scratch, /*trusted=*/true);
                    ++t.settled_wide;
                    ok = emit(idx, subjects_.lengths[idx], s);
                }
                return ok;
            });
        // On cancellation the worker is aborting anyway; clearing keeps
        // the run_worker fallback from double-settling on the keep path.
        overflow.clear();
        return keep;
    }

    /// One dense escalation cohort: `count` deferred subjects (original
    /// indices, count <= W) re-packed column-major into `repack` and
    /// settled together by the i16 inter-sequence kernel, with
    /// the lo-half variant when the group fits half the lanes. Lanes
    /// the i16 pass itself flags as saturated go straight to the exact
    /// int32 rescore — the striped i16 attempt rescore_wide would run
    /// first is already proven futile.
    template <class EmitFn>
    SWH_HOT_PATH bool escalate_batch(const std::uint32_t* batch,
                                     std::size_t count,
                                     ScanScratch& scratch,
                                     std::vector<Code>& repack, EmitFn&& emit,
                                     ScanStats& t) {
        const std::uint32_t columns = repack_columns(batch, count, repack);
        ++t.escalations16;
        std::int16_t lane_best[64];
        const std::uint64_t ovf = sw_interseq_i16(
            *aligner_->interseq(), repack.data(), columns, aligner_->gap(),
            aligner_->isa(), scratch, lane_best, count);
        bool keep = true;
        std::uint64_t settled16 = 0;
        for (std::size_t i = 0; i < count && keep; ++i) {
            const std::uint32_t idx = batch[i];
            Score s;
            if ((ovf >> i) & 1) {
                s = aligner_->rescore_i32(subjects_.subject(idx), scratch);
            } else {
                s = static_cast<Score>(lane_best[i]);
                ++settled16;
            }
            ++t.settled_wide;
            keep = emit(idx, subjects_.lengths[idx], s);
        }
        aligner_->credit_runs16(settled16);
        return keep;
    }

    template <class EmitFn>
    SWH_HOT_PATH bool score_striped(std::uint32_t idx, ScanScratch& scratch,
                                    EmitFn&& emit,
                       std::vector<std::uint32_t>& overflow,
                       ScanStats& t) {
        ++t.subjects_striped;
        const StripedResult r =
            aligner_->score_u8(subjects_.subject(idx), scratch,
                               /*trusted=*/true);
        if (r.overflow) {
            // NOLINTNEXTLINE(swh-no-alloc-in-hot-path): deferred batch,
            // bounded by the claim size.
            overflow.push_back(idx);
            return true;
        }
        ++t.settled8;
        return emit(idx, subjects_.lengths[idx], r.score);
    }

    const StripedAligner* aligner_;
    PackedSubjects subjects_;
    std::size_t chunk_;
    InterleavedCohorts cohorts_;
    bool cohort_mode_ = false;
    /// Pruning threshold feed (null = prefilter unarmed). Owned by the
    /// caller; its value must only ever increase.
    const std::atomic<Score>* threshold_ = nullptr;
    /// Per-cohort exact-stage route, precomputed at construction from
    /// cohort fill against the query-length-dependent bar.
    std::vector<CohortPath> choice_;
    /// sw_interseq_u8 result entries of the layout's largest cohort: the
    /// per-worker subject_best size (W plus its followers).
    std::size_t best_entries_ = 0;
    /// Claim-slot -> cohort-index permutation, built only when the
    /// prefilter is armed: the kPrimeCohorts cohorts whose mean subject
    /// length is closest to the query's come first (threshold priming),
    /// the rest follow in ascending column order — shortest cohorts
    /// (cheapest, best pruning odds) first, so the sweep cost model
    /// (SweepModel) has measured the filter before the expensive
    /// cohorts are reached. Empty = identity (exhaustive scans are
    /// untouched).
    std::vector<std::uint32_t> prime_order_;
    std::atomic<std::size_t> next_{0};
    mutable Mutex stats_mu_;
    /// Sum of the workers' records, added once per run_worker call.
    ScanStats stats_ SWH_GUARDED_BY(stats_mu_);
};

}  // namespace swh::align
