#include "repair/instance_builder.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <tuple>
#include <utility>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace dbrepair {

namespace {

// The fixes of one candidate column — one (relation, attribute, MLF value)
// — by row: an open-addressed table of 8-byte {row, fix id} slots. A
// column holds at most one fix per row, so the row alone is the key. Linear
// probing, at most half full (it doubles past that), so it is sized by the
// column's candidates in this call and a session batch pays O(batch), never
// O(|relation|). The home slot keeps row order local: a row's block of 64
// consecutive rows is scrambled (Fibonacci hashing) onto a block of 64
// slots and the low row bits pick the slot in it. Both algorithms visit
// violation members in near-ascending row order, so successive probes
// mostly hit the same cache lines instead of missing once each.
class RowFixTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // At least two blocks, so the block shift below stays under 64.
  RowFixTable() { Rehash(2 << kBlockBits); }

  // The id of `row`'s fix in this column, or kNone.
  uint32_t Find(uint32_t row) const {
    for (size_t slot = Home(row); slots_[slot].id != kNone;
         slot = (slot + 1) & (slots_.size() - 1)) {
      if (slots_[slot].row == row) return slots_[slot].id;
    }
    return kNone;
  }

  // The id of `row`'s fix; a row without one gets `id`, which is returned.
  uint32_t FindOrInsert(uint32_t row, uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * slots_.size());
    size_t slot = Home(row);
    for (; slots_[slot].id != kNone; slot = (slot + 1) & (slots_.size() - 1)) {
      if (slots_[slot].row == row) return slots_[slot].id;
    }
    slots_[slot] = {row, id};
    ++size_;
    return id;
  }

 private:
  static constexpr int kBlockBits = 6;
  static constexpr uint32_t kBlockMask = (uint32_t{1} << kBlockBits) - 1;

  struct Slot {
    uint32_t row;
    uint32_t id;
  };

  size_t Home(uint32_t row) const {
    const uint64_t block =
        (uint64_t{row >> kBlockBits} * 0x9e3779b97f4a7c15ULL) >> shift_;
    return (block << kBlockBits) | (row & kBlockMask);
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, {});
    slots_.assign(capacity, Slot{0, kNone});
    shift_ = 64 - std::countr_zero(capacity) + kBlockBits;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t slot = Home(s.row);
      while (slots_[slot].id != kNone) slot = (slot + 1) & (capacity - 1);
      slots_[slot] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 0;
};

// One candidate column and the fixes Algorithm 3 put in it.
struct FixColumn {
  uint32_t relation = 0;
  uint32_t attribute = 0;
  int64_t value = 0;
  RowFixTable rows;
};

// What a fix of one column does to any violation set of one constraint
// (Algorithm 4), when the constraint alone decides it.
enum class Link : uint8_t { kSolves, kKeeps, kCheck };

// The closed-form link rule. When `ic` repeats no relation, a violation set
// of it has exactly one assignment of members to atoms, and that
// assignment satisfies the body at the current cells. If the fix's
// attribute holds a variable that occurs nowhere else in the atoms and in
// no variable-variable built-in, the fix can only falsify the `x θ c`
// built-ins on that variable: every other atom position and built-in
// reads the same cells as before. So the fix solves the set iff one of
// those built-ins is false at the new value, whatever the set. Any other
// shape is kCheck: SetSatisfies decides it per set. The rule is syntactic
// and sound for non-local IC sets too.
Link ClosedFormLink(const BoundConstraint& ic, const FixColumn& column) {
  const BoundAtom* atom = nullptr;
  for (size_t a = 0; a < ic.atoms.size(); ++a) {
    for (size_t b = a + 1; b < ic.atoms.size(); ++b) {
      if (ic.atoms[a].relation_index == ic.atoms[b].relation_index) {
        return Link::kCheck;
      }
    }
    if (ic.atoms[a].relation_index == column.relation) atom = &ic.atoms[a];
  }
  if (atom == nullptr) return Link::kCheck;  // no set of ic holds its tuples
  const int32_t var = atom->var_ids[column.attribute];
  if (var < 0 || ic.var_occurrences[var].size() != 1) return Link::kCheck;
  const Value new_value = Value::Int(column.value);
  bool solves = false;
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var) {
      if (b.lhs_var == var || b.rhs_var == var) return Link::kCheck;
    } else if (b.lhs_var == var && !EvalCompare(new_value, b.op, b.rhs_const)) {
      solves = true;
    }
  }
  return solves ? Link::kSolves : Link::kKeeps;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Result<std::vector<CandidateFix>> GenerateCandidateFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations, uint32_t vid_offset) {
  obs::ObsContext& obs = obs::CurrentObs();

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
  // (ic, relation) -> [column] table; a non-local group (no MLF value) has
  // no entry. Groups with the same (relation, attribute, MLF value) share
  // one column, since their fixes coincide.
  const size_t num_relations = db.relation_count();
  std::vector<std::vector<uint32_t>> mlf_table(ics.size() * num_relations);
  std::vector<FixColumn> columns;
  // Per relation, its columns: the fixes a tuple of it may have.
  std::vector<std::vector<uint32_t>> relation_columns(num_relations);
  std::map<std::tuple<uint32_t, uint32_t, int64_t>, uint32_t> column_ids;
  for (const GroupKey& key : group_order) {
    const auto [ic_index, relation, attribute] = key;
    const std::optional<int64_t> value = MonoLocalFixValue(groups.at(key));
    if (!value.has_value()) continue;
    const auto [it, added] = column_ids.try_emplace(
        {relation, attribute, *value}, static_cast<uint32_t>(columns.size()));
    if (added) {
      FixColumn& column = columns.emplace_back();
      column.relation = relation;
      column.attribute = attribute;
      column.value = *value;
      relation_columns[relation].push_back(it->second);
    }
    mlf_table[ic_index * num_relations + relation].push_back(it->second);
  }

  // One serial pass in violation order: a fix's id is its first encounter,
  // and its column's row table drops every later repeat. The fix list is
  // reserved once, for an upper bound: per column, its entries among the
  // members, but at most one fix per row of its relation.
  std::vector<CandidateFix> fixes;
  {
    std::vector<size_t> entries(columns.size(), 0);
    for (const ViolationSet& v : violations) {
      for (const TupleRef t : v.tuples) {
        for (const uint32_t c :
             mlf_table[v.ic_index * num_relations + t.relation]) {
          ++entries[c];
        }
      }
    }
    size_t bound = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      bound += std::min(entries[c], db.table(columns[c].relation).size());
    }
    fixes.reserve(bound);
  }
  for (const ViolationSet& v : violations) {
    for (const TupleRef t : v.tuples) {
      for (const uint32_t c :
           mlf_table[v.ic_index * num_relations + t.relation]) {
        FixColumn& column = columns[c];
        const Value& current = db.tuple(t).value(column.attribute);
        if (current.is_int() && current.AsInt() == column.value) {
          continue;  // MLF(t, ic, A) == t changes nothing, solves nothing.
        }
        const auto id = static_cast<uint32_t>(fixes.size());
        if (column.rows.FindOrInsert(t.row, id) != id) continue;
        const int64_t old_value = current.is_int() ? current.AsInt() : 0;
        CandidateFix& fix = fixes.emplace_back();
        fix.tuple = t;
        fix.attribute = column.attribute;
        fix.old_value = old_value;
        fix.new_value = column.value;
        const double alpha = db.schema()
                                 .relations()[t.relation]
                                 .attribute(column.attribute)
                                 .alpha;
        fix.weight = alpha * distance.ScalarDistance(
                                 static_cast<double>(old_value),
                                 static_cast<double>(column.value));
      }
    }
  }
  obs.metrics.GetCounter("build.candidate_fixes")->Add(fixes.size());
  fixes_span.Finish();

  // ---- Algorithm 4: link candidates to the violation sets they solve. ----
  obs::Span setcover_span(&obs.events, "setcover");
  // Per (ic, column), the closed-form verdict or kCheck.
  std::vector<Link> link_rule(ics.size() * columns.size());
  for (size_t i = 0; i < ics.size(); ++i) {
    for (size_t c = 0; c < columns.size(); ++c) {
      link_rule[i * columns.size() + c] = ClosedFormLink(ics[i], columns[c]);
    }
  }
  // One pass in violation order, so every `solved` list comes out in
  // ascending vid order (a fix links to a set at most once). A kCheck
  // candidate t' is checked in place: member j reads the fix's value in the
  // fix's attribute instead of its stored cell.
  uint64_t closed_checks = 0;
  uint64_t fallback_checks = 0;
  // The set's members, read only by a kCheck; built by its first one.
  std::vector<std::pair<uint32_t, TupleView>> members;
  ViolationEngine::SatisfiesScratch scratch;
  for (size_t vid = 0; vid < violations.size(); ++vid) {
    const ViolationSet& v = violations[vid];
    const Link* rule = &link_rule[v.ic_index * columns.size()];
    members.clear();
    for (size_t j = 0; j < v.tuples.size(); ++j) {
      const TupleRef t = v.tuples[j];
      for (const uint32_t c : relation_columns[t.relation]) {
        const uint32_t f = columns[c].rows.Find(t.row);
        if (f == RowFixTable::kNone) continue;
        bool solves = rule[c] == Link::kSolves;
        if (rule[c] != Link::kCheck) {
          ++closed_checks;
        } else {
          ++fallback_checks;
          if (members.empty()) {
            for (const TupleRef m : v.tuples) {
              members.emplace_back(m.relation, db.tuple(m));
            }
          }
          const Value new_value = Value::Int(columns[c].value);
          solves = ViolationEngine::SetSatisfies(
              ics[v.ic_index], members,
              {j, columns[c].attribute, &new_value}, &scratch);
        }
        if (solves) {
          fixes[f].solved.push_back(vid_offset + static_cast<uint32_t>(vid));
        }
      }
    }
  }
  obs.metrics.GetCounter("build.satisfies_checks")
      ->Add(closed_checks + fallback_checks);
  obs.metrics.GetCounter("build.link_checks_closed")->Add(closed_checks);
  obs.metrics.GetCounter("build.link_checks_fallback")->Add(fallback_checks);

  // Drop candidates with empty S(t, t') (Definition 2.6(b)), in place; the
  // survivors keep their relative order, so ids are renumbered densely.
  const size_t dropped = std::erase_if(
      fixes, [](const CandidateFix& fix) { return fix.solved.empty(); });
  obs.metrics.GetCounter("build.fixes_dropped_unsolving")->Add(dropped);
  setcover_span.Finish();
  return fixes;
}

Result<RepairProblem> BuildRepairProblem(ViolationEngine& engine,
                                         const DistanceFunction& distance) {
  RepairProblem problem;
  obs::ObsContext& obs = obs::CurrentObs();
  const Database& db = engine.db();
  const std::vector<BoundConstraint>& ics = engine.ics();

  obs.metrics.GetGauge("parallel.num_threads")
      ->Set(static_cast<double>(ResolveNumThreads(engine.num_threads())));

  // ---- Columnar snapshot of the row store (the scan's input). ----
  if (!engine.has_snapshot()) {
    obs::Span snapshot_span(&obs.events, "snapshot");
    const auto snapshot_start = std::chrono::steady_clock::now();
    engine.BuildSnapshot();
    obs.metrics.GetCounter("scan.columnar.snapshot_ns")
        ->Add(ElapsedNs(snapshot_start));
    obs.metrics.GetCounter("scan.columnar.snapshots")->Add(1);
  }

  // ---- Algorithm 2: the violation-set array A. ----
  obs::Span violations_span(&obs.events, "violations");
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
                             /*vid_offset=*/0));

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

Result<RepairProblem> BuildRepairProblem(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance, const BuildOptions& options) {
  ViolationEngineOptions engine_options = options.engine;
  engine_options.num_threads = ResolveNumThreads(options.num_threads);
  ViolationEngine engine(db, ics, engine_options);
  DBREPAIR_ASSIGN_OR_RETURN(RepairProblem problem,
                            BuildRepairProblem(engine, distance));
  problem.snapshot = engine.snapshot();
  return problem;
}

}  // namespace dbrepair
