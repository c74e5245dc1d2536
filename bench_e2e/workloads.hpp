#pragma once
// The benchmark's workloads and their seeded inputs.
//
// Inputs are generated from the seed, rendered to FASTA text, and handed
// to the program's own parsers inside the timed set-up, exactly as
// hdcs_submit would read them from files. Why each workload exists is
// recorded in BENCHMARK.json at the repository root.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/data_manager.hpp"

namespace bench {

struct Workload {
  std::string name;
  bool dsearch = true;
  // DSEARCH: random protein queries against a seqgen database with
  // planted homologs.
  std::size_t queries = 0;
  std::size_t query_len = 0;
  std::size_t db_seqs = 0;
  // DPRml: `instances` concurrent problems, each over its own simulated
  // alignment (so a run's total work averages over several datasets) and
  // with its own taxon addition order.
  int taxa = 0;
  std::size_t sites = 0;
  int instances = 0;
  /// Run the server with a write-ahead log in a fresh directory.
  bool wal = false;
};

/// The named workload at full size, or at toy size for the self-test.
/// Throws hdcs::InputError for an unknown name.
Workload find_workload(const std::string& name, bool toy);
std::vector<std::string> workload_names();

struct Inputs {
  std::string queries_fasta;
  std::string db_fasta;
  std::vector<std::string> alignments_fasta;  // one per DPRml instance
};

Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Parse the FASTA text and construct one DataManager per problem — the
/// part of set-up that belongs to the application.
std::vector<std::shared_ptr<hdcs::dist::DataManager>> make_problems(
    const Workload& w, const Inputs& in);

}  // namespace bench
