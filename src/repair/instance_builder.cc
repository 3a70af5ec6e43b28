#include "repair/instance_builder.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace dbrepair {

namespace {

// Key for candidate-fix deduplication: (tuple, attribute, new value).
struct FixKey {
  uint64_t tuple_packed;
  uint32_t attribute;
  int64_t value;

  bool operator==(const FixKey& o) const {
    return tuple_packed == o.tuple_packed && attribute == o.attribute &&
           value == o.value;
  }
};

size_t HashOf(const FixKey& k) {
  size_t h = k.tuple_packed * 0x9e3779b97f4a7c15ULL;
  h ^= (k.attribute + 0x9e3779b9U) + (h << 6) + (h >> 2);
  h ^= std::hash<int64_t>{}(k.value) + (h << 6) + (h >> 2);
  return h;
}

FixKey KeyOf(const CandidateFix& fix) {
  return FixKey{fix.tuple.Packed(), fix.attribute, fix.new_value};
}

// Dedupe index over a fix vector: an open-addressed table of ids into it,
// keyed by each fix's (tuple, attribute, new value). Linear probing, at most
// half full (it doubles past that), home slot from the top bits of the
// scrambled hash. No per-key allocation.
class FixIndex {
 public:
  explicit FixIndex(size_t expected) {
    Rehash(std::bit_ceil(std::max<size_t>(16, 2 * expected)), {});
  }

  // True iff no fix in `fixes` has `key`; the caller then appends its fix,
  // whose id (fixes.size()) the index has already recorded.
  bool Insert(const std::vector<CandidateFix>& fixes, const FixKey& key) {
    if (2 * (fixes.size() + 1) > slots_.size()) {
      Rehash(2 * slots_.size(), fixes);
    }
    size_t slot = Home(key);
    while (slots_[slot] != kEmpty) {
      if (KeyOf(fixes[slots_[slot]]) == key) return false;
      slot = (slot + 1) & (slots_.size() - 1);
    }
    slots_[slot] = static_cast<uint32_t>(fixes.size());
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Home(const FixKey& key) const {
    return (HashOf(key) * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  void Rehash(size_t capacity, const std::vector<CandidateFix>& fixes) {
    slots_.assign(capacity, kEmpty);
    shift_ = 64 - std::countr_zero(capacity);
    for (uint32_t id = 0; id < fixes.size(); ++id) {
      size_t slot = Home(KeyOf(fixes[id]));
      while (slots_[slot] != kEmpty) slot = (slot + 1) & (capacity - 1);
      slots_[slot] = id;
    }
  }

  std::vector<uint32_t> slots_;
  int shift_ = 0;
};

// Where each tuple's run starts in the (packed tuple, fix id)-sorted
// tuple_fixes list: an open-addressed table keyed by the packed tuple.
// Linear probing, at most half full; a slot holds run start + 1 (0 is
// empty), and a probe confirms its key on that list entry, which the
// caller reads next anyway — so a slot is 4 bytes. The home slot keeps row
// order local: a tuple's block of 64 consecutive rows is scrambled
// (Fibonacci hashing) onto a block of 64 slots and the low row bits pick
// the slot in it. Algorithm 4 visits violation members in near-ascending
// row order, so successive probes mostly hit the same cache lines instead
// of missing once each. Sized by the number of tuples with fixes, so a
// session batch pays O(batch), never O(|D|).
class TupleFixRuns {
 public:
  explicit TupleFixRuns(
      const std::vector<std::pair<uint64_t, uint32_t>>& tuple_fixes)
      : tuple_fixes_(tuple_fixes) {
    size_t runs = 0;
    for (size_t i = 0; i < tuple_fixes.size(); ++i) {
      if (i == 0 || tuple_fixes[i].first != tuple_fixes[i - 1].first) ++runs;
    }
    // At least two blocks, so the block shift below stays under 64.
    const size_t capacity =
        std::bit_ceil(std::max<size_t>(2 << kBlockBits, 2 * runs));
    slots_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity) + kBlockBits;
    for (size_t i = 0; i < tuple_fixes.size(); ++i) {
      if (i > 0 && tuple_fixes[i].first == tuple_fixes[i - 1].first) continue;
      size_t slot = Home(tuple_fixes[i].first);
      while (slots_[slot] != 0) slot = (slot + 1) & (capacity - 1);
      slots_[slot] = static_cast<uint32_t>(i + 1);
    }
  }

  // The position of `tuple`'s first entry; tuple_fixes.size() if it has
  // none.
  size_t Find(uint64_t tuple) const {
    for (size_t slot = Home(tuple); slots_[slot] != 0;
         slot = (slot + 1) & (slots_.size() - 1)) {
      const size_t begin = slots_[slot] - 1;
      if (tuple_fixes_[begin].first == tuple) return begin;
    }
    return tuple_fixes_.size();
  }

 private:
  static constexpr int kBlockBits = 6;
  static constexpr uint64_t kBlockMask = (uint64_t{1} << kBlockBits) - 1;

  size_t Home(uint64_t tuple) const {
    const uint64_t block =
        ((tuple >> kBlockBits) * 0x9e3779b97f4a7c15ULL) >> shift_;
    return (block << kBlockBits) | (tuple & kBlockMask);
  }

  const std::vector<std::pair<uint64_t, uint32_t>>& tuple_fixes_;
  std::vector<uint32_t> slots_;
  int shift_ = 0;
};

// Assigns fix ids to the shards' candidates in shard order, dropping repeats
// across shards, so ids follow exactly the serial first-encounter order.
std::vector<CandidateFix> MergeShardFixes(
    std::vector<std::vector<CandidateFix>>& shard_fixes) {
  size_t pending = 0;
  for (const auto& shard : shard_fixes) pending += shard.size();
  FixIndex index(pending);
  std::vector<CandidateFix> fixes;
  fixes.reserve(pending);
  for (std::vector<CandidateFix>& shard : shard_fixes) {
    for (CandidateFix& fix : shard) {
      if (index.Insert(fixes, KeyOf(fix))) fixes.push_back(std::move(fix));
    }
  }
  return fixes;
}

// A few shards per worker so one dense shard does not leave the other
// workers idle; shard boundaries never influence the output.
constexpr size_t kShardsPerThread = 4;

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Flushes the per-shard timing counters of one parallel phase ("fixes",
// "links"): `<phase>.shards`, `<phase>.shard_ns`, `<phase>.merge_ns`.
void RecordShardMetrics(obs::MetricsRegistry* metrics, const char* phase,
                        const std::vector<uint64_t>& shard_ns,
                        uint64_t merge_ns) {
  const std::string prefix(phase);
  metrics->GetCounter(prefix + ".shards")->Add(shard_ns.size());
  metrics->GetCounter(prefix + ".merge_ns")->Add(merge_ns);
  obs::Histogram* hist = metrics->GetHistogram(prefix + ".shard_ns");
  for (const uint64_t ns : shard_ns) hist->Record(ns);
}

}  // namespace

Result<std::vector<CandidateFix>> GenerateCandidateFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations, uint32_t vid_offset,
    size_t num_threads, ThreadPool* pool) {
  obs::ObsContext& obs = obs::CurrentObs();
  const size_t max_shards =
      num_threads > 1 ? num_threads * kShardsPerThread : 1;

  // ---- Algorithm 3: candidate mono-local fixes. ----
  obs::Span fixes_span(&obs.events, "fixes");
  // Comparisons of each ic on each flexible attribute, grouped.
  const LocalityReport locality = CheckLocality(db.schema(), ics);
  using GroupKey = std::tuple<uint32_t, uint32_t, uint32_t>;  // ic, rel, attr
  std::map<GroupKey, std::vector<FlexibleComparison>> groups;
  // The groups in first-comparison order, which orders each (ic,
  // relation)'s attributes and so the fix ids.
  std::vector<GroupKey> group_order;
  for (const FlexibleComparison& cmp : locality.flexible_comparisons) {
    const GroupKey key{cmp.ic_index, cmp.relation, cmp.attribute};
    auto& group = groups[key];
    if (group.empty()) group_order.push_back(key);
    group.push_back(cmp);
  }
  // MLF(t, ic, A) depends only on the group, so compute it once into a flat
  // (ic, relation) -> [(attribute, MLF value)] table the workers share; a
  // non-local group (no MLF value) has no entry.
  const size_t num_relations = db.relation_count();
  std::vector<std::vector<std::pair<uint32_t, int64_t>>> mlf_table(
      ics.size() * num_relations);
  for (const GroupKey& key : group_order) {
    const auto [ic_index, relation, attribute] = key;
    const std::optional<int64_t> value = MonoLocalFixValue(groups.at(key));
    if (value.has_value()) {
      mlf_table[ic_index * num_relations + relation].emplace_back(attribute,
                                                                  *value);
    }
  }

  // Violation shards emit their candidates in scan order into per-shard
  // buffers; the shard-order merge assigns ids in the exact serial
  // first-encounter order.
  const auto fix_ranges = ShardRanges(violations.size(), max_shards);
  std::vector<std::vector<CandidateFix>> shard_fixes(fix_ranges.size());
  std::vector<uint64_t> fix_shard_ns(fix_ranges.size(), 0);
  ParallelFor(pool, fix_ranges.size(), [&](size_t s) {
    const obs::ScopedWorkEvent shard_event("fixes.shard");
    const auto start = std::chrono::steady_clock::now();
    std::vector<CandidateFix>& out = shard_fixes[s];
    // Dropping the shard's own repeats here keeps the shard buffers (and
    // the merge) small on hotspots, where many sets share one tuple. Each
    // violation set emits about 2 fixes per tuple-attribute pair it
    // touches, so twice the shard's set count rarely grows the index.
    FixIndex seen(2 * (fix_ranges[s].second - fix_ranges[s].first));
    for (size_t vid = fix_ranges[s].first; vid < fix_ranges[s].second;
         ++vid) {
      const ViolationSet& v = violations[vid];
      for (const TupleRef t : v.tuples) {
        for (const auto& [attr, new_value] :
             mlf_table[v.ic_index * num_relations + t.relation]) {
          const Value& current = db.tuple(t).value(attr);
          if (current.is_int() && current.AsInt() == new_value) {
            continue;  // MLF(t, ic, A) == t changes nothing, solves nothing.
          }
          if (!seen.Insert(out, FixKey{t.Packed(), attr, new_value})) continue;
          const int64_t old_value = current.is_int() ? current.AsInt() : 0;
          CandidateFix& fix = out.emplace_back();
          fix.tuple = t;
          fix.attribute = attr;
          fix.old_value = old_value;
          fix.new_value = new_value;
          const double alpha =
              db.schema().relations()[t.relation].attribute(attr).alpha;
          fix.weight = alpha * distance.ScalarDistance(
                                   static_cast<double>(old_value),
                                   static_cast<double>(new_value));
        }
      }
    }
    fix_shard_ns[s] = ElapsedNs(start);
  });

  const auto fix_merge_start = std::chrono::steady_clock::now();
  // One shard has already dropped its own repeats: its buffer is the merge.
  std::vector<CandidateFix> fixes = fix_ranges.size() == 1
                                        ? std::move(shard_fixes[0])
                                        : MergeShardFixes(shard_fixes);
  // (packed tuple, fix id), sorted: each tuple's fixes in ascending id order.
  std::vector<std::pair<uint64_t, uint32_t>> tuple_fixes;
  tuple_fixes.reserve(fixes.size());
  for (uint32_t id = 0; id < fixes.size(); ++id) {
    tuple_fixes.emplace_back(fixes[id].tuple.Packed(), id);
  }
  std::sort(tuple_fixes.begin(), tuple_fixes.end());
  const TupleFixRuns tuple_runs(tuple_fixes);
  RecordShardMetrics(&obs.metrics, "fixes", fix_shard_ns,
                     ElapsedNs(fix_merge_start));
  obs.metrics.GetCounter("build.candidate_fixes")->Add(fixes.size());
  fixes_span.Finish();

  // ---- Algorithm 4: link candidates to the violation sets they solve. ----
  obs::Span setcover_span(&obs.events, "setcover");
  // Each shard records its (fix, violation) links in scan order; appending
  // shard by shard reproduces the serial ascending-vid `solved` lists. A
  // candidate t' is checked in place: member j reads the fix's value in the
  // fix's attribute instead of its stored cell.
  const auto link_ranges = ShardRanges(violations.size(), max_shards);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> shard_links(
      link_ranges.size());
  std::vector<uint64_t> shard_checks(link_ranges.size(), 0);
  std::vector<uint64_t> link_shard_ns(link_ranges.size(), 0);
  ParallelFor(pool, link_ranges.size(), [&](size_t s) {
    const obs::ScopedWorkEvent shard_event("links.shard");
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::pair<uint32_t, TupleView>> members;
    ViolationEngine::SatisfiesScratch scratch;
    for (size_t vid = link_ranges[s].first; vid < link_ranges[s].second;
         ++vid) {
      const ViolationSet& v = violations[vid];
      const BoundConstraint& ic = ics[v.ic_index];
      members.clear();
      for (const TupleRef t : v.tuples) {
        members.emplace_back(t.relation, db.tuple(t));
      }
      for (size_t j = 0; j < v.tuples.size(); ++j) {
        const uint64_t packed = v.tuples[j].Packed();
        for (size_t k = tuple_runs.Find(packed);
             k < tuple_fixes.size() && tuple_fixes[k].first == packed; ++k) {
          const uint32_t f = tuple_fixes[k].second;
          const Value new_value = Value::Int(fixes[f].new_value);
          ++shard_checks[s];
          if (ViolationEngine::SetSatisfies(
                  ic, members, {j, fixes[f].attribute, &new_value},
                  &scratch)) {
            shard_links[s].emplace_back(f, static_cast<uint32_t>(vid));
          }
        }
      }
    }
    link_shard_ns[s] = ElapsedNs(start);
  });

  const auto link_merge_start = std::chrono::steady_clock::now();
  uint64_t satisfies_checks = 0;
  for (size_t s = 0; s < link_ranges.size(); ++s) {
    satisfies_checks += shard_checks[s];
    for (const auto& [f, vid] : shard_links[s]) {
      fixes[f].solved.push_back(vid_offset + vid);
    }
  }
  RecordShardMetrics(&obs.metrics, "links", link_shard_ns,
                     ElapsedNs(link_merge_start));
  obs.metrics.GetCounter("build.satisfies_checks")->Add(satisfies_checks);

  // Drop candidates with empty S(t, t') (Definition 2.6(b)), in place; the
  // survivors keep their relative order, so ids are renumbered densely.
  const size_t dropped = std::erase_if(
      fixes, [](const CandidateFix& fix) { return fix.solved.empty(); });
  obs.metrics.GetCounter("build.fixes_dropped_unsolving")->Add(dropped);
  setcover_span.Finish();
  return fixes;
}

Result<RepairProblem> BuildRepairProblem(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance, const BuildOptions& options,
    ThreadPool* pool) {
  RepairProblem problem;
  obs::ObsContext& obs = obs::CurrentObs();

  const size_t num_threads = ResolveNumThreads(options.num_threads);
  obs.metrics.GetGauge("parallel.num_threads")
      ->Set(static_cast<double>(num_threads));
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(num_threads);
    pool = owned_pool.get();
  }

  // ---- Columnar snapshot of the row store (the scan's input). ----
  ViolationEngineOptions engine_options = options.engine;
  engine_options.num_threads = num_threads;
  if (engine_options.columnar != nullptr) {
    problem.snapshot = *engine_options.columnar;
  } else {
    obs::Span snapshot_span(&obs.events, "snapshot");
    const auto snapshot_start = std::chrono::steady_clock::now();
    problem.snapshot = ColumnSnapshot::Build(db, pool);
    obs.metrics.GetCounter("scan.columnar.snapshot_ns")
        ->Add(ElapsedNs(snapshot_start));
    obs.metrics.GetCounter("scan.columnar.snapshots")->Add(1);
  }
  engine_options.columnar = &problem.snapshot;

  // ---- Algorithm 2: the violation-set array A. ----
  obs::Span violations_span(&obs.events, "violations");
  ViolationEngine engine(db, ics, engine_options);
  DBREPAIR_ASSIGN_OR_RETURN(problem.violations, engine.FindViolations());
  problem.degrees = ComputeDegrees(problem.violations);
  {
    obs::Histogram* sizes = obs.metrics.GetHistogram("build.violation_set_size");
    for (const ViolationSet& v : problem.violations) {
      sizes->Record(v.tuples.size());
    }
  }
  violations_span.Finish();

  // ---- Algorithms 3+4 over the full violation list (global ids = local). --
  DBREPAIR_ASSIGN_OR_RETURN(
      problem.fixes,
      GenerateCandidateFixes(db, ics, distance, problem.violations,
                             /*vid_offset=*/0, num_threads, pool));

  // ---- Definition 3.1: the pure MWSCP view. ----
  problem.instance.num_elements = problem.violations.size();
  problem.instance.weights.reserve(problem.fixes.size());
  problem.instance.sets.reserve(problem.fixes.size());
  obs::Histogram* set_sizes = obs.metrics.GetHistogram("build.fix_set_size");
  // Per element, how many sets cover it; a zero is a violation set no fix
  // can solve.
  std::vector<uint32_t> coverage(problem.instance.num_elements, 0);
  for (const CandidateFix& fix : problem.fixes) {
    problem.instance.weights.push_back(fix.weight);
    problem.instance.sets.push_back(fix.solved);
    set_sizes->Record(fix.solved.size());
    for (const uint32_t e : fix.solved) ++coverage[e];
  }

  for (uint32_t e = 0; e < problem.instance.num_elements; ++e) {
    if (coverage[e] == 0) {
      return Status::Internal(
          "violation set " + problem.violations[e].ToString() +
          " is solvable by no mono-local fix; the IC set is not local "
          "(run EnsureLocal to diagnose)");
    }
  }

  // ---- Conflict components: one union-find pass over the sets just
  // assembled, while they are still cache-hot. The count feeds the
  // repair.components decomposition gauge. ----
  {
    obs::Span components_span(&obs.events, "components");
    problem.components = ComponentIndex::Build(problem.instance);
    obs.metrics.GetGauge("repair.components")
        ->Set(static_cast<double>(problem.components.num_components()));
  }
  return problem;
}

}  // namespace dbrepair
