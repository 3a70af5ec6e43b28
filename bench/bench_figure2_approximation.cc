// Figure 2 — "Distance Approximation": quality of the approximate repairs
// (total weight of the computed set cover = Delta-distance of the repair)
// for the greedy and layer algorithms across database sizes, averaged over
// three random Client/Buy databases with ~30% of tuples involved in
// inconsistencies (Section 4's setup).
//
// The paper's finding to reproduce: the greedy gives *better* (smaller)
// approximations than the layer algorithm in practice, even though layer
// has the better worst-case factor. The modified variants compute the same
// covers, so only greedy vs layer is reported (the paper says the same).
// An exact optimum is added at sizes where branch & bound is tractable.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "repair/setcover/prune.h"
#include "repair/setcover/solvers.h"

using namespace dbrepair;        // NOLINT(build/namespaces)
using namespace dbrepair::bench; // NOLINT(build/namespaces)

namespace {

// High-overlap variant: every inconsistent client carries many offending
// purchases, so the age-fix set covers many violation sets and the choice
// between one big set and many singletons separates the algorithms.
const PreparedProblem& OverlapProblem(size_t num_clients, uint64_t seed) {
  static auto* cache =
      new std::map<std::pair<size_t, uint64_t>, PreparedProblem>();
  const auto key = std::make_pair(num_clients, seed);
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  ClientBuyOptions options;
  options.num_clients = num_clients;
  options.buys_per_client = 6;
  options.inconsistency_ratio = 0.3;
  options.purchase_violation_ratio = 0.9;
  options.seed = seed;
  auto workload = GenerateClientBuy(options);
  if (!workload.ok()) std::abort();
  PreparedProblem prepared;
  prepared.workload =
      std::make_shared<GeneratedWorkload>(std::move(workload).value());
  auto bound =
      BindAll(prepared.workload->db.schema(), prepared.workload->ics);
  if (!bound.ok()) std::abort();
  prepared.bound = std::move(bound).value();
  auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                    DistanceFunction(), SharedBuildOptions());
  if (!problem.ok()) std::abort();
  prepared.problem = std::move(problem).value();
  prepared.csr = CsrSetCoverInstance::Freeze(prepared.problem.instance);
  return cache->emplace(key, std::move(prepared)).first->second;
}

}  // namespace

// An optional positional argument caps the client count, so the smoke tests
// and the benchmark-summary script can run the full sweep structure in
// seconds. The shared --threads flag (common/flags.h, same spelling as the
// CLI) feeds the instance builds.
int main(int argc, char** argv) {
  size_t num_threads = 1;
  std::vector<std::string> positional;
  FlagSet flags;
  flags.AddSize(kFlagThreads, &num_threads,
                "worker threads for the instance builds (0 = auto)");
  const Status parsed = flags.Parse(argc, argv, 1, &positional);
  if (!parsed.ok() || positional.size() > 1) {
    std::fprintf(stderr,
                 "usage: bench_figure2_approximation [max_clients]\n%s%s",
                 flags.Usage().c_str(),
                 parsed.ok() ? "" : (parsed.ToString() + "\n").c_str());
    return 2;
  }
  SharedBuildOptions().num_threads = num_threads;

  size_t max_clients = 100000;
  if (!positional.empty()) {
    max_clients = static_cast<size_t>(std::atoll(positional[0].c_str()));
  }
  std::vector<size_t> client_counts;
  for (const size_t c : {100, 300, 1000, 3000, 10000, 30000, 100000}) {
    if (c <= max_clients) client_counts.push_back(c);
  }
  if (client_counts.empty()) client_counts.push_back(max_clients);
  const std::vector<uint64_t> seeds = {1, 2, 3};
  const size_t exact_cap = 3000;  // branch & bound beyond this is hopeless

  std::printf("# Figure 2: cover weight (== repair distance) vs DB size\n");
  std::printf("# Client/Buy schema, 2 ICs, ~30%% inconsistent tuples, "
              "avg of 3 seeds\n");
  std::printf("%10s %12s %12s %12s %12s %10s\n", "tuples", "greedy",
              "layer", "optimal", "layer/grdy", "grdy/opt");

  for (const size_t clients : client_counts) {
    double greedy_total = 0;
    double layer_total = 0;
    double exact_total = 0;
    bool have_exact = clients <= exact_cap;
    size_t tuples = 0;
    for (const uint64_t seed : seeds) {
      const PreparedProblem& prepared = ClientBuyProblem(clients, seed);
      tuples = prepared.workload->db.TotalTuples();
      const auto greedy = GreedySetCover(prepared.csr);
      const auto layer = LayerSetCover(prepared.csr);
      if (!greedy.ok() || !layer.ok()) return 1;
      greedy_total += greedy->weight;
      layer_total += layer->weight;
      if (have_exact) {
        ExactSetCoverOptions options;
        options.max_nodes = 20'000'000;
        const auto exact = ExactSetCover(prepared.csr, options);
        if (exact.ok()) {
          exact_total += exact->weight;
        } else {
          have_exact = false;
        }
      }
    }
    const double n = static_cast<double>(seeds.size());
    if (have_exact) {
      std::printf("%10zu %12.2f %12.2f %12.2f %12.3f %10.4f\n", tuples,
                  greedy_total / n, layer_total / n, exact_total / n,
                  layer_total / greedy_total, greedy_total / exact_total);
    } else {
      std::printf("%10zu %12.2f %12.2f %12s %12.3f %10s\n", tuples,
                  greedy_total / n, layer_total / n, "-",
                  layer_total / greedy_total, "-");
    }
    std::fflush(stdout);
  }

  // ---- High-overlap variant + redundancy-pruning ablation. ----
  std::printf("\n# Figure 2b (extension): high-overlap workload "
              "(6 buys/client, 90%% offending)\n");
  std::printf("# and the PruneRedundantSets ablation\n");
  std::printf("%10s %12s %12s %12s %12s %12s\n", "tuples", "greedy",
              "grdy+prune", "layer", "layr+prune", "optimal");
  for (const size_t clients : {size_t{100}, size_t{300}, size_t{1000},
                               size_t{3000}, size_t{10000}}) {
    if (clients > max_clients && clients != 100) break;
    double greedy_total = 0, greedy_pruned = 0;
    double layer_total = 0, layer_pruned = 0;
    double exact_total = 0;
    bool have_exact = clients <= 1000;
    size_t tuples = 0;
    for (const uint64_t seed : seeds) {
      const PreparedProblem& prepared = OverlapProblem(clients, seed);
      tuples = prepared.workload->db.TotalTuples();
      const auto greedy = GreedySetCover(prepared.csr);
      const auto layer = LayerSetCover(prepared.csr);
      if (!greedy.ok() || !layer.ok()) return 1;
      greedy_total += greedy->weight;
      layer_total += layer->weight;
      greedy_pruned +=
          PruneRedundantSets(prepared.csr, *greedy).weight;
      layer_pruned +=
          PruneRedundantSets(prepared.csr, *layer).weight;
      if (have_exact) {
        ExactSetCoverOptions options;
        options.max_nodes = 20'000'000;
        const auto exact = ExactSetCover(prepared.csr, options);
        if (exact.ok()) {
          exact_total += exact->weight;
        } else {
          have_exact = false;
        }
      }
    }
    const double n = static_cast<double>(seeds.size());
    if (have_exact) {
      std::printf("%10zu %12.2f %12.2f %12.2f %12.2f %12.2f\n", tuples,
                  greedy_total / n, greedy_pruned / n, layer_total / n,
                  layer_pruned / n, exact_total / n);
    } else {
      std::printf("%10zu %12.2f %12.2f %12.2f %12.2f %12s\n", tuples,
                  greedy_total / n, greedy_pruned / n, layer_total / n,
                  layer_pruned / n, "-");
    }
    std::fflush(stdout);
  }
  return 0;
}
