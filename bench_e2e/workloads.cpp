#include "workloads.hpp"

#include "bio/fasta.hpp"
#include "bio/seqgen.hpp"
#include "dprml/dprml.hpp"
#include "dsearch/dsearch.hpp"
#include "phylo/simulate.hpp"
#include "util/error.hpp"

namespace bench {

namespace {

Workload dsearch_workload(bool toy) {
  Workload w;
  w.name = "dsearch";
  w.queries = 2;
  w.query_len = toy ? 60 : 300;
  w.db_seqs = toy ? 2000 : 120000;
  // hdcs_submit --wal-dir: about 50 results per job, so the WAL is
  // measured here at a cost that disk-latency noise cannot swamp.
  w.wal = true;
  return w;
}

Workload dprml_workload(bool toy) {
  Workload w;
  w.name = "dprml-6";
  w.dsearch = false;
  w.instances = 6;
  w.taxa = toy ? 6 : 16;
  w.sites = toy ? 80 : 300;
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"dsearch", "dprml-6"};
}

Workload find_workload(const std::string& name, bool toy) {
  if (name == "dsearch") return dsearch_workload(toy);
  if (name == "dprml-6") return dprml_workload(toy);
  throw hdcs::InputError("unknown workload '" + name + "'");
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  hdcs::Rng rng(seed);
  Inputs in;
  if (w.dsearch) {
    auto queries = hdcs::bio::make_queries(rng, w.queries, w.query_len,
                                           hdcs::bio::Alphabet::kProtein);
    hdcs::bio::DatabaseSpec spec;
    spec.num_sequences = w.db_seqs;
    auto db = hdcs::bio::make_database(rng, spec, queries);
    in.queries_fasta = hdcs::bio::to_fasta(queries);
    in.db_fasta = hdcs::bio::to_fasta(db);
  } else {
    auto model = hdcs::phylo::SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.0);
    auto rates = hdcs::phylo::RateModel::gamma(0.5, 4);
    for (int i = 0; i < w.instances; ++i) {
      auto tree = hdcs::phylo::random_tree(rng, {w.taxa, 0.1, "t"});
      in.alignments_fasta.push_back(
          hdcs::phylo::simulate_alignment(rng, tree, model, rates, {w.sites})
              .to_fasta());
    }
  }
  return in;
}

std::vector<std::shared_ptr<hdcs::dist::DataManager>> make_problems(
    const Workload& w, const Inputs& in) {
  std::vector<std::shared_ptr<hdcs::dist::DataManager>> problems;
  if (w.dsearch) {
    problems.push_back(std::make_shared<hdcs::dsearch::DSearchDataManager>(
        hdcs::bio::parse_fasta_auto(in.queries_fasta),
        hdcs::bio::parse_fasta_auto(in.db_fasta),
        hdcs::dsearch::DSearchConfig{}));
    return problems;
  }
  for (int i = 0; i < w.instances; ++i) {
    hdcs::dprml::DPRmlConfig config;
    // The process-wide EvalCache would let in-process donors share
    // candidate scores that real donors on separate machines never share.
    config.use_eval_cache = false;
    config.order_seed = static_cast<std::uint64_t>(i + 1);
    problems.push_back(std::make_shared<hdcs::dprml::DPRmlDataManager>(
        hdcs::phylo::Alignment::from_fasta(
            in.alignments_fasta.at(static_cast<std::size_t>(i))),
        config));
  }
  return problems;
}

}  // namespace bench
