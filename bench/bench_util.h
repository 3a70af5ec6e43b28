#ifndef DBREPAIR_BENCH_BENCH_UTIL_H_
#define DBREPAIR_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "constraints/ast.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "obs/chrome_trace.h"
#include "obs/context.h"
#include "repair/instance_builder.h"
#include "repair/setcover/csr_instance.h"

namespace dbrepair::bench {

/// When DBREPAIR_OBS_OUT is set, writes the run snapshot of the default obs
/// context (which the benchmarked pipeline records into) to that path at
/// process exit, next to the benchmark's own timing output. Installed once
/// by the problem builders below.
///
/// Two more environment switches drive the per-worker event buffers:
/// DBREPAIR_TRACE_EVENTS=1 enables recording for the whole process, and
/// DBREPAIR_TRACE_OUT=PATH
/// additionally writes the Chrome trace-event JSON at exit.
inline void InstallObsSnapshotAtExit() {
  static const bool installed = [] {
    const char* trace_events = std::getenv("DBREPAIR_TRACE_EVENTS");
    const bool trace_enabled =
        (trace_events != nullptr && trace_events[0] != '\0' &&
         trace_events[0] != '0') ||
        std::getenv("DBREPAIR_TRACE_OUT") != nullptr;
    if (trace_enabled) obs::DefaultObs().events.set_enabled(true);
    if (std::getenv("DBREPAIR_OBS_OUT") == nullptr &&
        std::getenv("DBREPAIR_TRACE_OUT") == nullptr) {
      return trace_enabled;
    }
    std::atexit([] {
      if (const char* path = std::getenv("DBREPAIR_OBS_OUT")) {
        std::ofstream out(path);
        out << BuildRunSnapshot(obs::DefaultObs()).Dump(2) << "\n";
      }
      if (const char* path = std::getenv("DBREPAIR_TRACE_OUT")) {
        std::ofstream out(path);
        out << obs::ChromeTraceJson(obs::DefaultObs()).Dump() << "\n";
      }
    });
    return true;
  }();
  (void)installed;
}

/// A fully-built repair problem ready for solver benchmarking: the paper's
/// Figure 3 times only the MWSCP solver (+ mapping), so benchmarks build
/// the instance and freeze it once outside the timed region.
struct PreparedProblem {
  std::shared_ptr<GeneratedWorkload> workload;
  std::vector<BoundConstraint> bound;
  RepairProblem problem;
  /// `problem.instance` frozen: what every solver reads.
  CsrSetCoverInstance csr;
};

/// Build options the memoised problem builders below use. Benchmark mains
/// that take the shared --threads flag (common/flags.h)
/// write them here before the first problem is built.
inline BuildOptions& SharedBuildOptions() {
  static BuildOptions options;
  return options;
}

/// Builds (and memoises) a Client/Buy problem for `num_clients` and `seed`.
/// ~30% of tuples are involved in inconsistencies, as in Section 4.
inline const PreparedProblem& ClientBuyProblem(size_t num_clients,
                                               uint64_t seed) {
  InstallObsSnapshotAtExit();
  static auto* cache =
      new std::map<std::pair<size_t, uint64_t>, PreparedProblem>();
  const auto key = std::make_pair(num_clients, seed);
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  ClientBuyOptions options;
  options.num_clients = num_clients;
  options.inconsistency_ratio = 0.3;
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
                                    DistanceFunction(DistanceKind::kL1),
                                    SharedBuildOptions());
  if (!problem.ok()) std::abort();
  prepared.problem = std::move(problem).value();
  prepared.csr = CsrSetCoverInstance::Freeze(prepared.problem.instance);
  return cache->emplace(key, std::move(prepared)).first->second;
}

/// Census problem keyed by (households, max household size, seed).
inline const PreparedProblem& CensusProblem(size_t households,
                                            size_t max_members,
                                            uint64_t seed) {
  InstallObsSnapshotAtExit();
  static auto* cache = new std::map<std::tuple<size_t, size_t, uint64_t>,
                                    PreparedProblem>();
  const auto key = std::make_tuple(households, max_members, seed);
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;

  CensusOptions options;
  options.num_households = households;
  options.max_members = max_members;
  options.inconsistency_ratio = 0.3;
  options.seed = seed;
  auto workload = GenerateCensus(options);
  if (!workload.ok()) std::abort();

  PreparedProblem prepared;
  prepared.workload =
      std::make_shared<GeneratedWorkload>(std::move(workload).value());
  auto bound =
      BindAll(prepared.workload->db.schema(), prepared.workload->ics);
  if (!bound.ok()) std::abort();
  prepared.bound = std::move(bound).value();
  auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                    DistanceFunction(DistanceKind::kL1),
                                    SharedBuildOptions());
  if (!problem.ok()) std::abort();
  prepared.problem = std::move(problem).value();
  prepared.csr = CsrSetCoverInstance::Freeze(prepared.problem.instance);
  return cache->emplace(key, std::move(prepared)).first->second;
}

}  // namespace dbrepair::bench

#endif  // DBREPAIR_BENCH_BENCH_UTIL_H_
