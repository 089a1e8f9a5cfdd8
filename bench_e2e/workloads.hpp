#pragma once

// The benchmark's workloads: how each one's query and database FASTA
// files are generated from a seed, and how its search is configured.
// README.md in this directory says why each workload was chosen.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace swhbench {

enum class Transport { InProcess, Socket };

/// Slave PEs of every search, each a single-threaded CpuEngine. The
/// master runs on the calling thread, so kSlaves + 1 threads are busy:
/// one per core of the 4-core reference host.
inline constexpr std::size_t kSlaves = 3;

struct Workload {
    std::string name;
    Transport transport = Transport::InProcess;
};

/// The benchmark workloads plus "parity", the small input of the CLI
/// parity check. Throws swh::ContractError for an unknown name.
const Workload& workload_by_name(const std::string& name);

/// Generated inputs of one workload, as written to disk.
struct InputSizes {
    std::size_t queries = 0;
    std::uint64_t query_residues = 0;
    std::size_t sequences = 0;
    std::uint64_t residues = 0;
    /// Σ query length × database residues: the cells of one search.
    std::uint64_t cells() const { return query_residues * residues; }
};

/// Writes `dir`/queries.fa and `dir`/database.fa for `workload`. The
/// same (workload, seed) always writes the same bytes.
InputSizes generate_inputs(const Workload& workload, std::uint64_t seed,
                           const std::string& dir);

std::string queries_path(const std::string& dir);
std::string database_path(const std::string& dir);

}  // namespace swhbench
