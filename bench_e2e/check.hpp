#pragma once

// Correctness check of a search's top-k lists, run untimed after the
// measured searches.

#include <cstdint>
#include <vector>

#include "align/sequence.hpp"
#include "core/results.hpp"
#include "db/database.hpp"

namespace swhbench {

/// Queries checked against the exhaustive reference: the shortest, the
/// longest and up to `extra` more drawn from `seed`, ascending.
std::vector<std::size_t> reference_sample(
    const std::vector<swh::align::Sequence>& queries, std::uint64_t seed,
    std::size_t extra = 4);

/// Exhaustive top-k of each sampled query: striped kernels only,
/// prefilter off — the scan path that shares no dispatch or pruning
/// code with the funnel the search runs.
std::vector<std::vector<swh::core::Hit>> exhaustive_reference(
    const std::vector<swh::align::Sequence>& queries,
    const swh::db::Database& database, const std::vector<std::size_t>& sample);

/// Number of queries whose reported top-k fails a check: the list is
/// shorter than min(k, database size) or longer than k, is not in
/// (score descending, index ascending) order without repeats, names a
/// subject outside the database, reports a score that
/// align::sw_score_affine does not reproduce, or — for each sampled
/// query — differs from `reference`.
std::size_t count_bad_queries(
    const std::vector<swh::align::Sequence>& queries,
    const swh::db::Database& database,
    const std::vector<std::vector<swh::core::Hit>>& hits,
    const std::vector<std::size_t>& sample,
    const std::vector<std::vector<swh::core::Hit>>& reference);

}  // namespace swhbench
