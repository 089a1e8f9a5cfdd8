#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "align/sw_scalar.hpp"
#include "engines/cpu_engine.hpp"
#include "pipeline.hpp"
#include "simd/arch.hpp"
#include "util/rng.hpp"

namespace swhbench {

using namespace swh;

namespace {

bool ordered(const core::Hit& a, const core::Hit& b) {
    return a.score != b.score ? a.score > b.score : a.db_index < b.db_index;
}

bool query_ok(const align::Sequence& query, const db::Database& database,
              const std::vector<core::Hit>& hits) {
    const std::size_t want = std::min(kTopK, database.size());
    if (hits.size() < want || hits.size() > kTopK) return false;
    for (std::size_t i = 0; i < hits.size(); ++i) {
        if (hits[i].db_index >= database.size()) return false;
        if (i > 0 && !ordered(hits[i - 1], hits[i])) return false;
        const align::Score exact =
            align::sw_score_affine(query.residues,
                                   database[hits[i].db_index].residues,
                                   search_matrix(), kGap);
        if (exact != hits[i].score) return false;
    }
    return true;
}

}  // namespace

std::vector<std::size_t> reference_sample(
    const std::vector<align::Sequence>& queries, std::uint64_t seed,
    std::size_t extra) {
    std::vector<std::size_t> picked;
    if (queries.empty()) return picked;
    const auto by_length = [&](std::size_t a, std::size_t b) {
        return queries[a].size() < queries[b].size();
    };
    std::vector<std::size_t> idx(queries.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    picked.push_back(*std::min_element(idx.begin(), idx.end(), by_length));
    picked.push_back(*std::max_element(idx.begin(), idx.end(), by_length));
    Rng rng(seed);
    const std::size_t target =
        std::min(queries.size(), picked.size() + extra);
    while (picked.size() < target) {
        const std::size_t q = rng.below(queries.size());
        if (std::find(picked.begin(), picked.end(), q) == picked.end()) {
            picked.push_back(q);
        }
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
    return picked;
}

std::vector<std::vector<core::Hit>> exhaustive_reference(
    const std::vector<align::Sequence>& queries,
    const db::Database& database, const std::vector<std::size_t>& sample) {
    engines::EngineConfig config;
    config.matrix = &search_matrix();
    config.gap = kGap;
    config.top_k = kTopK;
    config.isa = simd::best_supported();
    config.interseq = false;
    config.prefilter = false;
    engines::CpuEngine engine(config, static_cast<unsigned>(kSlaves));
    std::vector<std::vector<core::Hit>> out;
    for (const std::size_t q : sample) {
        out.push_back(engine
                          .execute(queries[q], static_cast<std::uint32_t>(q),
                                   0, database, nullptr)
                          .hits);
    }
    return out;
}

std::size_t count_bad_queries(
    const std::vector<align::Sequence>& queries,
    const db::Database& database,
    const std::vector<std::vector<core::Hit>>& hits,
    const std::vector<std::size_t>& sample,
    const std::vector<std::vector<core::Hit>>& reference) {
    if (hits.size() != queries.size()) return queries.size();
    std::vector<char> bad(queries.size(), 0);
    for (std::size_t i = 0; i < sample.size(); ++i) {
        if (i >= reference.size() || hits[sample[i]] != reference[i]) {
            bad[sample[i]] = 1;
        }
    }
    // Rescoring every hit with the scalar oracle is the slow part; split
    // it over threads by query.
    std::atomic<std::size_t> next{0};
    {
        std::vector<std::jthread> pool;
        for (std::size_t w = 0; w < kSlaves; ++w) {
            pool.emplace_back([&] {
                for (std::size_t q = next++; q < queries.size(); q = next++) {
                    if (!query_ok(queries[q], database, hits[q])) bad[q] = 1;
                }
            });
        }
    }
    return static_cast<std::size_t>(
        std::count(bad.begin(), bad.end(), char{1}));
}

}  // namespace swhbench
