#include "constraints/violation_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>

#include "obs/context.h"

namespace dbrepair {

namespace {

// Union-find over variable ids, used to merge explicit `x = y` built-ins
// into join classes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int32_t Find(int32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int32_t a, int32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int32_t> parent_;
};

// A built-in rewritten onto variable classes for plan execution.
struct PlannedBuiltin {
  int32_t lhs_class = -1;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_var = false;
  int32_t rhs_class = -1;
  const Value* rhs_const = nullptr;
};

// The planned built-ins of `ic` in the order BuildPlan indexed them (merged
// `x = y` equalities excluded). Deterministic, so PrepareColumnar rebuilds
// the list BuildPlan's step slots index into.
std::vector<PlannedBuiltin> RebuildPlannedBuiltins(const BoundConstraint& ic) {
  UnionFind uf(ic.var_names.size());
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) uf.Union(b.lhs_var, b.rhs_var);
  }
  std::vector<PlannedBuiltin> builtins;
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) continue;
    PlannedBuiltin pb;
    pb.lhs_class = uf.Find(b.lhs_var);
    pb.op = b.op;
    pb.rhs_is_var = b.rhs_is_var;
    if (b.rhs_is_var) {
      pb.rhs_class = uf.Find(b.rhs_var);
    } else {
      pb.rhs_const = &b.rhs_const;
    }
    builtins.push_back(pb);
  }
  return builtins;
}

// Seed/step for multi-column composite key codes. Single-column keys use the
// raw (injective) column code instead, so only composites can collide — and
// composite probes verify each candidate row's codes column by column.
constexpr uint64_t kKeySeed = 0xcbf29ce484222325ULL;

uint64_t CombineKeyCodes(uint64_t h, uint64_t code) {
  return (h ^ code) * 0x100000001b3ULL;
}

// EvalCompare's tail over an already-computed three-way comparison.
bool CmpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// The binding slot of a Value-backed class holds the bound cell's address.
const Value& SlotValue(uint64_t slot) {
  return *reinterpret_cast<const Value*>(static_cast<uintptr_t>(slot));
}

}  // namespace

// One Plan lowered onto a ColumnSnapshot by PrepareColumnar. Every class the
// plan compares gets one column kind: typed codes when all its columns are
// clean and of one declared type and every built-in on it maps onto codes,
// else the row store's Values. Either way each comparison reproduces
// Value's semantics exactly.
struct ColumnarPlan {
  // A column devirtualised to its raw array pointer, so the hot loop pays
  // one predictable switch and one indexed load per code instead of chasing
  // ColumnData's type and vector headers every row. kValue reads the row
  // store instead: `data` is the relation's cell array, `pos` the
  // attribute and `arity` the row stride.
  struct ColRef {
    enum class Kind : uint8_t { kI64, kF64, kU32, kValue };
    Kind kind = Kind::kI64;
    uint32_t pos = 0;
    uint32_t arity = 0;
    const void* data = nullptr;

    static ColRef Of(const ColumnData& col) {
      switch (col.type) {
        case Type::kInt64:
          return {Kind::kI64, 0, 0, col.ints.data()};
        case Type::kDouble:
          return {Kind::kF64, 0, 0, col.doubles.data()};
        case Type::kString:
          return {Kind::kU32, 0, 0, col.codes.data()};
      }
      return {};
    }
    static ColRef OfValues(const Table& table, uint32_t pos) {
      return {Kind::kValue, pos,
              static_cast<uint32_t>(table.schema().arity()), table.cells()};
    }

    const Value& ValueAt(uint32_t row) const {
      return static_cast<const Value*>(data)[size_t{row} * arity + pos];
    }

    // What a class binding from this column stores: the code
    // ColumnData::KeyCode gives, or the cell's address for kValue.
    uint64_t Bind(uint32_t row) const {
      switch (kind) {
        case Kind::kI64:
          return std::bit_cast<uint64_t>(
              static_cast<const int64_t*>(data)[row]);
        case Kind::kF64:
          return std::bit_cast<uint64_t>(
              static_cast<const double*>(data)[row]);
        case Kind::kU32:
          return static_cast<const uint32_t*>(data)[row];
        case Kind::kValue:
          return reinterpret_cast<uintptr_t>(&ValueAt(row));
      }
      return 0;
    }

    // Whether `row` holds the value bound in `slot`: code equality, or
    // Value == for kValue.
    bool Matches(uint32_t row, uint64_t slot) const {
      if (kind == Kind::kValue) return ValueAt(row) == SlotValue(slot);
      return Bind(row) == slot;
    }

    // The code a join index keys `row` on: the typed code, or Value::Hash
    // (compatible with Value ==) for kValue.
    uint64_t IndexCode(uint32_t row) const {
      return kind == Kind::kValue ? ValueAt(row).Hash() : Bind(row);
    }
    // The same code for a value bound in `slot` by a column of this kind.
    uint64_t SlotIndexCode(uint64_t slot) const {
      return kind == Kind::kValue ? SlotValue(slot).Hash() : slot;
    }
  };

  // A constant check against one column (Value::operator==). `col.data`
  // points at the raw array the mode indexes.
  struct ConstCheck {
    enum class Mode {
      kNever,        // can never match a clean row (NULL / mixed-type const)
      kInt,          // ints[row] == i
      kIntToDouble,  // double(ints[row]) == d  (int column vs double const,
                     //  the same promotion Value::AsNumeric performs)
      kDouble,       // doubles[row] == d
      kCode,         // codes[row] == code (0 = const not in the dictionary)
      kValue,        // col.ValueAt(row) == *value (unclean column, or an
                     //  int const beyond ±2^53 against a DOUBLE column)
    };
    ColRef col;
    Mode mode = Mode::kNever;
    int64_t i = 0;
    double d = 0.0;
    uint32_t code = 0;
    const Value* value = nullptr;
  };

  // A column whose binding is written into / compared against a class slot.
  struct ClsCol {
    ColRef col;
    int32_t cls = -1;
  };

  // A built-in over class bindings, its Value-level type dispatch resolved
  // at prepare time into one evaluator.
  struct TypedBuiltin {
    enum class Eval {
      kConst,   // statically known result (NULL const, string/number mix)
      kIntInt,  // exact int64 comparison
      kNum,     // double comparison; int codes promoted like Value::AsNumeric
      kCode,    // dictionary-code equality (kEq / kNe only)
      kValue,   // EvalCompare on Value-backed bindings
    };
    Eval eval = Eval::kConst;
    CompareOp op = CompareOp::kEq;
    int32_t lhs_class = -1;
    bool lhs_is_int = false;  // kNum: the lhs binding decodes as int64
    bool rhs_is_var = false;
    int32_t rhs_class = -1;
    bool rhs_is_int = false;  // kNum: the rhs binding decodes as int64
    int64_t rhs_i = 0;
    double rhs_d = 0.0;
    uint64_t rhs_code = 0;
    const Value* rhs_value = nullptr;  // kValue with a constant rhs
    bool const_result = false;
  };

  // Parallel to Plan::steps / AtomStep's position vectors.
  struct Step {
    size_t row_count = 0;
    std::vector<ConstCheck> consts;
    std::vector<ClsCol> joins;
    // Binds of compared classes only; a binding nothing will ever read
    // again is not written.
    std::vector<ClsCol> binds;
    std::vector<ColRef> index_cols;
    // Built by PrepareColumnar when index_cols is non-empty.
    const ViolationEngine::CodeIndex* index = nullptr;
  };

  std::vector<Step> steps;
  // Same indexing as the rebuilt PlannedBuiltin vector.
  std::vector<TypedBuiltin> builtins;
};

namespace {

Status CapExceeded(size_t cap) {
  return Status::ResourceExhausted(
      "violation-set enumeration exceeded max_violation_sets = " +
      std::to_string(cap));
}

// Sorts `words` as records of `stride` words each, compared word by word,
// and drops repeated records. A scan emits records in driving-row order, so
// they often arrive sorted already; then only the repeats are dropped.
void SortUniqueRecords(std::vector<uint64_t>* words, size_t stride) {
  const size_t n = words->size() / stride;
  const auto less = [stride](const uint64_t* a, const uint64_t* b) {
    return std::lexicographical_compare(a, a + stride, b, b + stride);
  };
  const uint64_t* base = words->data();
  size_t r = 1;
  while (r < n && !less(base + r * stride, base + (r - 1) * stride)) ++r;
  if (r < n) {
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return less(base + a * stride, base + b * stride);
    });
    std::vector<uint64_t> sorted;
    sorted.reserve(words->size());
    for (const size_t i : order) {
      sorted.insert(sorted.end(), base + i * stride, base + (i + 1) * stride);
    }
    words->swap(sorted);
  }
  uint64_t* data = words->data();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* rec = data + i * stride;
    if (kept > 0 && std::equal(rec, rec + stride, data + (kept - 1) * stride)) {
      continue;
    }
    if (kept != i) std::copy(rec, rec + stride, data + kept * stride);
    ++kept;
  }
  words->resize(kept * stride);
}

}  // namespace

// One constraint's enumerated tuple sets, deduplicated by sorting. Each
// record is `stride = atoms + 1` words: the assignment's packed TupleRefs,
// sorted and duplicate-free, then zero padding, then the set's length.
// Comparing records word by word orders them exactly as (tuples) vectors
// compare: after the first tuple every tuple of a set is strictly larger
// than its predecessor, so never 0, and outranks the padding of a shorter
// set with the same prefix; the length word tells {} from {R0[0]}, whose
// packed tuple equals the padding.
struct SetBuffer {
  SetBuffer(size_t num_atoms, size_t cap)
      : stride(num_atoms + 1), cap(cap), compact_at(cap) {}

  size_t stride;
  // max_violation_sets.
  size_t cap;
  // Add compacts once the buffer holds more records than this:
  // max(cap, 2 x the distinct count the last compaction left). Holding at
  // most `cap` records proves at most `cap` distinct sets, so the check
  // sorts only when the cap may be in danger, and the doubling keeps
  // repeated compactions linear overall.
  size_t compact_at;
  // Records [0, sorted) are sorted and distinct; later ones are raw.
  size_t sorted = 0;
  std::vector<uint64_t> words;

  size_t size() const { return words.size() / stride; }
  const uint64_t* record(size_t i) const { return words.data() + i * stride; }

  // Appends the set of the `stride - 1` tuples `refs` binds, one per atom.
  // False iff a compaction this triggered left more than `cap` sets.
  bool Add(const TupleRef* refs) {
    const size_t n = stride - 1;
    const size_t at = words.size();
    words.resize(at + stride);  // zero-filled: the padding
    uint64_t* rec = words.data() + at;
    for (size_t i = 0; i < n; ++i) {  // insertion sort: n is the atom count
      const uint64_t packed = refs[i].Packed();
      size_t j = i;
      for (; j > 0 && rec[j - 1] > packed; --j) rec[j] = rec[j - 1];
      rec[j] = packed;
    }
    const size_t len = static_cast<size_t>(std::unique(rec, rec + n) - rec);
    std::fill(rec + len, rec + n, 0);
    rec[n] = len;
    return size() <= compact_at || Compact();
  }

  // Appends `other`'s records and releases its memory.
  void Absorb(SetBuffer* other) {
    words.insert(words.end(), other->words.begin(), other->words.end());
    std::vector<uint64_t>().swap(other->words);
  }

  // Sorts and deduplicates every record; false iff more than `cap` remain.
  bool Compact() {
    if (sorted != size()) {
      SortUniqueRecords(&words, stride);
      sorted = size();
      compact_at = std::max(cap, 2 * sorted);
    }
    return sorted <= cap;
  }

  // Whether the compacted records hold `probe`, by binary search.
  bool Contains(const uint64_t* probe) const {
    size_t lo = 0;
    size_t hi = sorted;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const uint64_t* rec = record(mid);
      if (std::lexicographical_compare(rec, rec + stride, probe,
                                       probe + stride)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < sorted && std::equal(probe, probe + stride, record(lo));
  }
};

ViolationEngine::ViolationEngine(const Database& db,
                                 const std::vector<BoundConstraint>& ics,
                                 ViolationEngineOptions options)
    : db_(db), ics_(ics), options_(options) {
  if (options_.columnar != nullptr) {
    snapshot_ = *options_.columnar;
    has_snapshot_ = true;
    options_.columnar = nullptr;  // the copy above is the engine's
  }
}

ViolationEngine::Plan ViolationEngine::BuildPlan(const BoundConstraint& ic,
                                                 int forced_first_atom) {
  Plan plan;
  plan.ic = &ic;
  const size_t num_vars = ic.var_names.size();
  plan.num_classes = num_vars;

  UnionFind uf(num_vars);
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) uf.Union(b.lhs_var, b.rhs_var);
  }

  // ---- Choose the atom order greedily, guided by table statistics. ----
  const size_t num_atoms = ic.atoms.size();
  std::vector<bool> used(num_atoms, false);
  std::vector<bool> class_bound(num_vars, false);
  std::vector<uint32_t> order;
  order.reserve(num_atoms);

  auto atom_classes = [&](uint32_t a) {
    std::vector<int32_t> classes;
    for (int32_t vid : ic.atoms[a].var_ids) {
      if (vid >= 0) classes.push_back(uf.Find(vid));
    }
    return classes;
  };

  // Estimated scan output of atom `a` alone: row count discounted by the
  // selectivity of its constant arguments and of the var-constant built-ins
  // its variables anchor (uniform-range model; see storage/statistics.h).
  auto estimated_rows = [&](uint32_t a) {
    const BoundAtom& atom = ic.atoms[a];
    const TableStats& stats = GetStats(atom.relation_index);
    double est = static_cast<double>(stats.row_count);
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      if (atom.var_ids[pos] < 0) {
        est *= EstimateSelectivity(stats, pos, CompareOp::kEq,
                                   atom.constants[pos]);
      }
    }
    for (const BoundBuiltin& b : ic.builtins) {
      if (b.rhs_is_var) continue;
      for (const VariableOccurrence& occ : ic.var_occurrences[b.lhs_var]) {
        if (occ.atom == a) {
          est *= EstimateSelectivity(stats, occ.position, b.op, b.rhs_const);
          break;  // one discount per built-in
        }
      }
    }
    return est;
  };

  for (size_t round = 0; round < num_atoms; ++round) {
    int best = -1;
    // Lexicographic score: more indexable join columns, then the smaller
    // estimated scan output, then the lower atom index (determinism).
    long best_joins = -1;
    double best_est = 0.0;
    if (round == 0 && forced_first_atom >= 0) best = forced_first_atom;
    for (uint32_t a = 0; best < 0 && a < num_atoms; ++a) {
      if (used[a]) continue;
      long joins = 0;
      for (int32_t vid : ic.atoms[a].var_ids) {
        if (vid >= 0 && class_bound[uf.Find(vid)]) ++joins;
      }
      const double est = estimated_rows(a);
      const bool better =
          joins > best_joins ||
          (joins == best_joins && (best < 0 || est < best_est));
      if (better) {
        best = static_cast<int>(a);
        best_joins = joins;
        best_est = est;
      }
    }
    used[best] = true;
    order.push_back(static_cast<uint32_t>(best));
    for (int32_t cls : atom_classes(static_cast<uint32_t>(best))) {
      class_bound[cls] = true;
    }
  }

  // ---- Build the steps along that order. ----
  std::fill(class_bound.begin(), class_bound.end(), false);
  std::vector<int> first_bind_depth(num_vars, -1);
  for (size_t depth = 0; depth < order.size(); ++depth) {
    const uint32_t a = order[depth];
    const BoundAtom& atom = ic.atoms[a];
    AtomStep step;
    step.atom_index = a;
    std::vector<bool> bound_this_atom(num_vars, false);
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      const int32_t vid = atom.var_ids[pos];
      if (vid < 0) {
        step.const_positions.push_back(pos);
        continue;
      }
      const int32_t cls = uf.Find(vid);
      if (class_bound[cls]) {
        // Bound by an earlier atom: usable as a hash-index column.
        step.index_positions.push_back(pos);
        step.index_classes.push_back(cls);
      } else if (bound_this_atom[cls]) {
        // Duplicate within this atom: a row-local equality check.
        step.join_positions.emplace_back(pos, cls);
      } else {
        step.bind_positions.emplace_back(pos, cls);
        bound_this_atom[cls] = true;
        if (first_bind_depth[cls] < 0) {
          first_bind_depth[cls] = static_cast<int>(depth);
        }
      }
    }
    for (uint32_t pos = 0; pos < atom.var_ids.size(); ++pos) {
      const int32_t vid = atom.var_ids[pos];
      if (vid >= 0) class_bound[uf.Find(vid)] = true;
    }
    plan.steps.push_back(std::move(step));
  }

  // ---- Schedule the built-ins at their earliest evaluable depth. ----
  // Built-in b gets a slot in `steps[d].builtins` holding an index into the
  // PlannedBuiltin vector the executor rebuilds (same construction order).
  uint32_t planned_index = 0;
  for (const BoundBuiltin& b : ic.builtins) {
    if (b.rhs_is_var && b.op == CompareOp::kEq) continue;  // merged.
    int depth = first_bind_depth[uf.Find(b.lhs_var)];
    if (b.rhs_is_var) {
      depth = std::max(depth, first_bind_depth[uf.Find(b.rhs_var)]);
    }
    plan.steps[static_cast<size_t>(depth)].builtins.push_back(planned_index++);
  }
  return plan;
}

void ViolationEngine::CodeIndex::Build(const std::vector<uint64_t>& codes,
                                       size_t max_keys) {
  const auto n = static_cast<uint32_t>(codes.size());
  size_t capacity = 16;
  while (capacity < max_keys * 2) capacity <<= 1;  // load factor <= 0.5
  groups.assign(capacity, Group{});
  mask = capacity - 1;
  keys = 0;
  // Pass 1: claim a slot per distinct key and count its rows.
  for (uint32_t row = 0; row < n; ++row) {
    const uint64_t key = codes[row];
    for (uint64_t i = Slot(key, mask);; i = (i + 1) & mask) {
      Group& g = groups[i];
      if (g.count == 0) {
        g.key = key;
        ++keys;
      }
      if (g.key == key) {
        ++g.count;
        break;
      }
    }
  }
  // Exclusive prefix sum over the groups; the slot order itself never
  // matters because a probe only ever reads a single group's span.
  uint32_t offset = 0;
  for (Group& g : groups) {
    if (g.count == 0) continue;
    g.offset = offset;
    offset += g.count;
  }
  // Pass 2: place rows ascending within each group, reusing `offset` as the
  // fill cursor, then rewind the cursors.
  rows.resize(n);
  for (uint32_t row = 0; row < n; ++row) {
    const uint64_t key = codes[row];
    for (uint64_t i = Slot(key, mask);; i = (i + 1) & mask) {
      Group& g = groups[i];
      if (g.key == key && g.count != 0) {
        rows[g.offset++] = row;
        break;
      }
    }
  }
  for (Group& g : groups) g.offset -= g.count;
  tail.clear();
  tail_rows = 0;
}

const ViolationEngine::CodeIndex& ViolationEngine::GetCodeIndex(
    uint32_t relation, const std::vector<uint32_t>& key) {
  using ColRef = ColumnarPlan::ColRef;
  const RelationColumns& rel = snapshot_.relation(relation);
  const auto n = static_cast<uint32_t>(rel.row_count);
  auto [it, inserted] =
      code_index_cache_.try_emplace(std::make_pair(relation, key));
  CodeIndex& index = it->second;
  if (!inserted && index.indexed_rows() == n) return index;

  std::vector<ColRef> cols;
  for (const uint32_t k : key) {
    const uint32_t pos = k & ~kValueKeyBit;
    cols.push_back((k & kValueKeyBit) != 0
                       ? ColRef::OfValues(db_.table(relation), pos)
                       : ColRef::Of(rel.columns[pos]));
  }
  const auto code_of = [&cols](uint32_t row) {
    if (cols.size() == 1) return cols[0].IndexCode(row);
    uint64_t code = kKeySeed;
    for (const ColRef& col : cols) {
      code = CombineKeyCodes(code, col.IndexCode(row));
    }
    return code;
  };

  // Tables only append, so rows [0, indexed_rows()) still hold the keys
  // they were indexed under: a small suffix joins the tail.
  const size_t from = inserted ? 0 : index.indexed_rows();
  if (!inserted && from < n &&
      (index.tail_rows + (n - from)) * kTailFoldShare <=
          index.rows.size()) {
    for (auto row = static_cast<uint32_t>(from); row < n; ++row) {
      index.tail[code_of(row)].push_back(row);
    }
    index.tail_rows += n - static_cast<uint32_t>(from);
    return index;
  }
  index.exact = cols.size() == 1 && cols[0].kind != ColRef::Kind::kValue;
  // Pack each row's key code once; both counting passes reuse the array.
  std::vector<uint64_t> codes(n);
  for (uint32_t row = 0; row < n; ++row) codes[row] = code_of(row);
  // A fold knows its distinct keys up to the rows not yet indexed: size the
  // slot table on that bound, not on rows (a join key often repeats).
  const size_t max_keys =
      inserted || from > n
          ? n
          : size_t{index.keys} + index.tail.size() + (n - from);
  index.Build(codes, max_keys);
  obs::CurrentObs().metrics.GetCounter("engine.code_index.builds")->Add(1);
  return index;
}

const TableStats& ViolationEngine::GetStats(uint32_t relation) {
  const RelationColumns& rel = snapshot_.relation(relation);
  const auto it = stats_cache_.find(relation);
  if (it != stats_cache_.end() &&
      rel.row_count <=
          it->second.row_count + it->second.row_count / kStatsRegrowShare) {
    return it->second;
  }
  obs::CurrentObs().metrics.GetCounter("engine.stats.computes")->Add(1);
  TableStats& stats = stats_cache_[relation];
  stats = ComputeColumnStats(rel, db_.table(relation));
  return stats;
}

void ViolationEngine::BuildSnapshot() {
  if (has_snapshot_) return;
  snapshot_ = ColumnSnapshot::Build(db_);
  has_snapshot_ = true;
}

Status ViolationEngine::PrepareSnapshot() {
  BuildSnapshot();
  if (snapshot_.relation_count() != db_.relation_count()) {
    return Status::FailedPrecondition(
        "columnar snapshot has " +
        std::to_string(snapshot_.relation_count()) + " relations, the "
        "database " + std::to_string(db_.relation_count()));
  }
  for (uint32_t r = 0; r < db_.relation_count(); ++r) {
    const RelationColumns& rel = snapshot_.relation(r);
    const Table& table = db_.table(r);
    if (rel.row_count != table.size() ||
        rel.columns.size() != table.schema().arity()) {
      return Status::FailedPrecondition(
          "columnar snapshot of '" + table.schema().name() + "' is stale: " +
          std::to_string(rel.row_count) + " rows x " +
          std::to_string(rel.columns.size()) + " columns, the table " +
          std::to_string(table.size()) + " x " +
          std::to_string(table.schema().arity()));
    }
  }
  return Status::OK();
}

ColumnarPlan ViolationEngine::PrepareColumnar(const Plan& plan) {
  using ColRef = ColumnarPlan::ColRef;
  const ColumnSnapshot& snap = snapshot_;
  const BoundConstraint& ic = *plan.ic;
  const std::vector<PlannedBuiltin> planned = RebuildPlannedBuiltins(ic);

  // A class is "compared" when its binding is ever read again: joined,
  // index-probed, or fed to a built-in. Bind-only classes need no binding
  // at all.
  std::vector<std::vector<const ColumnData*>> sources(plan.num_classes);
  for (const AtomStep& step : plan.steps) {
    const RelationColumns& rel =
        snap.relation(ic.atoms[step.atom_index].relation_index);
    for (const auto& [pos, cls] : step.bind_positions) {
      sources[cls].push_back(&rel.columns[pos]);
    }
    for (const auto& [pos, cls] : step.join_positions) {
      sources[cls].push_back(&rel.columns[pos]);
    }
    for (size_t i = 0; i < step.index_positions.size(); ++i) {
      sources[step.index_classes[i]].push_back(
          &rel.columns[step.index_positions[i]]);
    }
  }
  std::vector<bool> compared(plan.num_classes, false);
  for (size_t cls = 0; cls < plan.num_classes; ++cls) {
    compared[cls] = sources[cls].size() > 1;
  }
  for (const PlannedBuiltin& pb : planned) {
    compared[pb.lhs_class] = true;
    if (pb.rhs_is_var) compared[pb.rhs_class] = true;
  }

  // ---- Column kind per compared class. ----
  // Code equality coincides with Value == only over clean columns of one
  // declared type (an INT column joined to a DOUBLE one compares by
  // numeric promotion; NULL and NaN cells have no faithful code).
  std::vector<Type> class_types(plan.num_classes, Type::kInt64);
  std::vector<bool> by_value(plan.num_classes, false);
  for (size_t cls = 0; cls < plan.num_classes; ++cls) {
    if (!compared[cls]) continue;
    class_types[cls] = sources[cls].front()->type;
    for (const ColumnData* col : sources[cls]) {
      if (col->type != class_types[cls] || !col->clean()) by_value[cls] = true;
    }
  }
  const auto beyond_exact = [](const Value& c) {
    return c.is_int() && (c.AsInt() > kColumnarExactIntBound ||
                          c.AsInt() < -kColumnarExactIntBound);
  };
  const auto is_order = [](CompareOp op) {
    return op != CompareOp::kEq && op != CompareOp::kNe;
  };
  // Built-ins whose Value semantics the codes cannot express: dictionary
  // codes are unordered; Value::Compare treats a NaN bound as equal to
  // every number; an int bound beyond ±2^53 compares exactly against the
  // ints a DOUBLE column stores, which its double view rounds.
  for (const PlannedBuiltin& pb : planned) {
    if (pb.rhs_is_var) continue;
    const Type type = class_types[pb.lhs_class];
    const Value& c = *pb.rhs_const;
    if ((type == Type::kString && c.is_string() && is_order(pb.op)) ||
        (c.is_double() && std::isnan(c.AsDouble())) ||
        (type == Type::kDouble && beyond_exact(c))) {
      by_value[pb.lhs_class] = true;
    }
  }
  // A var-var built-in reads both classes the same way, so a Value-backed
  // side (or a string order, or an INT/DOUBLE mix whose ints a DOUBLE view
  // cannot hold exactly) makes both sides Value-backed, to a fixpoint.
  for (bool changed = true; changed;) {
    changed = false;
    for (const PlannedBuiltin& pb : planned) {
      if (!pb.rhs_is_var) continue;
      const Type lt = class_types[pb.lhs_class];
      const Type rt = class_types[pb.rhs_class];
      const bool numeric_mix =
          lt != rt && lt != Type::kString && rt != Type::kString;
      const bool string_order =
          lt == Type::kString && rt == Type::kString && is_order(pb.op);
      const bool need = by_value[pb.lhs_class] || by_value[pb.rhs_class] ||
                        numeric_mix || string_order;
      if (need && !(by_value[pb.lhs_class] && by_value[pb.rhs_class])) {
        by_value[pb.lhs_class] = by_value[pb.rhs_class] = true;
        changed = true;
      }
    }
  }

  ColumnarPlan cplan;

  // ---- Built-in evaluators. ----
  using Eval = ColumnarPlan::TypedBuiltin::Eval;
  cplan.builtins.reserve(planned.size());
  for (const PlannedBuiltin& pb : planned) {
    ColumnarPlan::TypedBuiltin tb;
    tb.op = pb.op;
    tb.lhs_class = pb.lhs_class;
    tb.rhs_is_var = pb.rhs_is_var;
    tb.rhs_class = pb.rhs_class;
    const Type lk = class_types[pb.lhs_class];
    if (by_value[pb.lhs_class]) {
      tb.eval = Eval::kValue;
      tb.rhs_value = pb.rhs_const;
    } else if (pb.rhs_is_var) {
      const Type rk = class_types[pb.rhs_class];
      if (lk == Type::kString && rk == Type::kString) {
        tb.eval = Eval::kCode;  // (in)equality only; orders went by Value
      } else if (lk == Type::kString || rk == Type::kString) {
        tb.eval = Eval::kConst;
        tb.const_result = pb.op == CompareOp::kNe;  // EvalCompare's mix rule
      } else if (lk == Type::kInt64) {
        tb.eval = Eval::kIntInt;  // both INT: a mix went by Value
      } else {
        tb.eval = Eval::kNum;
      }
    } else {
      const Value& c = *pb.rhs_const;
      if (c.is_null()) {
        tb.eval = Eval::kConst;
        tb.const_result = false;  // NULL compares false under every operator
      } else if ((lk == Type::kString) != c.is_string()) {
        tb.eval = Eval::kConst;
        tb.const_result = pb.op == CompareOp::kNe;
      } else if (lk == Type::kString) {
        tb.eval = Eval::kCode;  // (in)equality only; orders went by Value
        tb.rhs_code = snap.interner().Find(c.AsString());
      } else if (lk == Type::kInt64 && c.is_int()) {
        tb.eval = Eval::kIntInt;
        tb.rhs_i = c.AsInt();
      } else {
        tb.eval = Eval::kNum;
        tb.rhs_d = c.AsNumeric();
      }
    }
    tb.lhs_is_int = lk == Type::kInt64;
    if (tb.rhs_is_var) {
      tb.rhs_is_int = class_types[tb.rhs_class] == Type::kInt64;
    }
    cplan.builtins.push_back(tb);
  }

  // ---- Steps. ----
  cplan.steps.resize(plan.steps.size());
  for (size_t d = 0; d < plan.steps.size(); ++d) {
    const AtomStep& step = plan.steps[d];
    const BoundAtom& atom = ic.atoms[step.atom_index];
    const RelationColumns& rel = snap.relation(atom.relation_index);
    const Table& table = db_.table(atom.relation_index);
    ColumnarPlan::Step& cstep = cplan.steps[d];
    cstep.row_count = rel.row_count;
    const auto class_col = [&](uint32_t pos, int32_t cls) {
      return by_value[cls] ? ColRef::OfValues(table, pos)
                           : ColRef::Of(rel.columns[pos]);
    };
    using Mode = ColumnarPlan::ConstCheck::Mode;
    for (const uint32_t pos : step.const_positions) {
      const ColumnData& col = rel.columns[pos];
      const Value& c = atom.constants[pos];
      ColumnarPlan::ConstCheck cc;
      cc.col = ColRef::Of(col);
      if (!col.clean() || (col.type == Type::kDouble && beyond_exact(c))) {
        // NULLs encode as 0 / code 0 and would collide with real values.
        cc.col = ColRef::OfValues(table, pos);
        cc.mode = Mode::kValue;
        cc.value = &c;
      } else if (c.is_null()) {
        cc.mode = Mode::kNever;  // a clean column never equals NULL
      } else {
        switch (col.type) {
          case Type::kInt64:
            if (c.is_int()) {
              cc.mode = Mode::kInt;
              cc.i = c.AsInt();
            } else if (c.is_double()) {
              cc.mode = Mode::kIntToDouble;
              cc.d = c.AsDouble();
            }
            break;
          case Type::kDouble:
            if (c.is_int() || c.is_double()) {
              cc.mode = Mode::kDouble;
              cc.d = c.AsNumeric();
            }
            break;
          case Type::kString:
            if (c.is_string()) {
              cc.mode = Mode::kCode;
              cc.code = snap.interner().Find(c.AsString());
            }
            break;
        }
      }
      cstep.consts.push_back(cc);
    }
    for (const auto& [pos, cls] : step.join_positions) {
      cstep.joins.push_back({class_col(pos, cls), cls});
    }
    for (const auto& [pos, cls] : step.bind_positions) {
      if (compared[cls]) cstep.binds.push_back({class_col(pos, cls), cls});
    }
    std::vector<uint32_t> index_key;
    for (size_t i = 0; i < step.index_positions.size(); ++i) {
      const uint32_t pos = step.index_positions[i];
      const int32_t cls = step.index_classes[i];
      cstep.index_cols.push_back(class_col(pos, cls));
      index_key.push_back(by_value[cls] ? pos | kValueKeyBit : pos);
    }
    if (!index_key.empty()) {
      cstep.index = &GetCodeIndex(atom.relation_index, index_key);
    }
  }
  return cplan;
}

Status ViolationEngine::ExecuteInto(const Plan& plan, const ColumnarPlan& cp,
                                    const AtomFilters* filters,
                                    SetBuffer* sets,
                                    ExecCounters* counters) const {
  const BoundConstraint& ic = *plan.ic;
  const AtomFilter no_filter;

  std::vector<uint64_t> binding(plan.num_classes, 0);
  std::vector<TupleRef> current(plan.steps.size());

  uint64_t rows_scanned = 0;
  uint64_t assignments_found = 0;

  auto eval_builtin = [&](const ColumnarPlan::TypedBuiltin& tb) -> bool {
    using Eval = ColumnarPlan::TypedBuiltin::Eval;
    switch (tb.eval) {
      case Eval::kConst:
        return tb.const_result;
      case Eval::kIntInt: {
        const int64_t a = std::bit_cast<int64_t>(binding[tb.lhs_class]);
        const int64_t b = tb.rhs_is_var
                              ? std::bit_cast<int64_t>(binding[tb.rhs_class])
                              : tb.rhs_i;
        return CmpHolds(tb.op, a < b ? -1 : (a > b ? 1 : 0));
      }
      case Eval::kNum: {
        const double a =
            tb.lhs_is_int ? static_cast<double>(
                                std::bit_cast<int64_t>(binding[tb.lhs_class]))
                          : std::bit_cast<double>(binding[tb.lhs_class]);
        double b;
        if (tb.rhs_is_var) {
          b = tb.rhs_is_int ? static_cast<double>(std::bit_cast<int64_t>(
                                  binding[tb.rhs_class]))
                            : std::bit_cast<double>(binding[tb.rhs_class]);
        } else {
          b = tb.rhs_d;
        }
        return CmpHolds(tb.op, a < b ? -1 : (a > b ? 1 : 0));
      }
      case Eval::kCode: {
        const uint64_t b = tb.rhs_is_var ? binding[tb.rhs_class] : tb.rhs_code;
        return (tb.op == CompareOp::kEq) == (binding[tb.lhs_class] == b);
      }
      case Eval::kValue:
        return EvalCompare(SlotValue(binding[tb.lhs_class]), tb.op,
                           tb.rhs_is_var ? SlotValue(binding[tb.rhs_class])
                                         : *tb.rhs_value);
    }
    return false;
  };

  Status status = Status::OK();
  auto recurse = [&](auto&& self, size_t depth) -> bool {  // false = abort
    if (depth == plan.steps.size()) {
      ++assignments_found;
      if (!sets->Add(current.data())) {
        status = CapExceeded(options_.max_violation_sets);
        return false;
      }
      return true;
    }
    const AtomStep& step = plan.steps[depth];
    const ColumnarPlan::Step& cstep = cp.steps[depth];
    const BoundAtom& atom = ic.atoms[step.atom_index];

    // Candidate rows: code index on join columns, else a direct walk over
    // the column arrays (no materialised id list).
    CodeIndex::Candidates cand;
    bool verify_key = false;
    if (cstep.index != nullptr) {
      uint64_t key;
      if (step.index_classes.size() == 1) {
        key = cstep.index_cols[0].SlotIndexCode(
            binding[step.index_classes[0]]);
      } else {
        key = kKeySeed;
        for (size_t i = 0; i < step.index_classes.size(); ++i) {
          key = CombineKeyCodes(key, cstep.index_cols[i].SlotIndexCode(
                                         binding[step.index_classes[i]]));
        }
      }
      cand = cstep.index->Find(key);
      if (cand.main_count + cand.tail_count == 0) return true;  // no match
      verify_key = !cstep.index->exact;
    }

    const AtomFilter& filter =
        filters != nullptr ? (*filters)[step.atom_index] : no_filter;

    // One candidate row through the step's checks: key verify (inexact
    // indexes only), consts, joins, binds, built-ins. Returns false only on
    // abort.
    auto scan_row = [&](const uint32_t row) -> bool {
      ++rows_scanned;
      if (verify_key) {
        for (size_t i = 0; i < cstep.index_cols.size(); ++i) {
          if (!cstep.index_cols[i].Matches(row,
                                           binding[step.index_classes[i]])) {
            return true;  // hash collision, not a key match
          }
        }
      }
      for (const ColumnarPlan::ConstCheck& cc : cstep.consts) {
        using Mode = ColumnarPlan::ConstCheck::Mode;
        bool match = false;
        switch (cc.mode) {
          case Mode::kNever:
            break;
          case Mode::kInt:
            match = static_cast<const int64_t*>(cc.col.data)[row] == cc.i;
            break;
          case Mode::kIntToDouble:
            match = static_cast<double>(
                        static_cast<const int64_t*>(cc.col.data)[row]) == cc.d;
            break;
          case Mode::kDouble:
            match = static_cast<const double*>(cc.col.data)[row] == cc.d;
            break;
          case Mode::kCode:
            match = static_cast<const uint32_t*>(cc.col.data)[row] == cc.code;
            break;
          case Mode::kValue:
            match = cc.col.ValueAt(row) == *cc.value;
            break;
        }
        if (!match) return true;
      }
      for (const ColumnarPlan::ClsCol& jc : cstep.joins) {
        if (!jc.col.Matches(row, binding[jc.cls])) return true;
      }
      for (const ColumnarPlan::ClsCol& bc : cstep.binds) {
        binding[bc.cls] = bc.col.Bind(row);
      }
      for (const uint32_t b : step.builtins) {
        if (!eval_builtin(cp.builtins[b])) return true;
      }
      current[depth] = TupleRef{atom.relation_index, row};
      return self(self, depth + 1);
    };

    if (cstep.index != nullptr) {
      for (uint32_t k = 0; k < cand.main_count; ++k) {
        const uint32_t row = cand.main[k];
        if (!filter.Admits(row)) continue;
        if (!scan_row(row)) return false;
      }
      for (uint32_t k = 0; k < cand.tail_count; ++k) {
        const uint32_t row = cand.tail[k];
        if (!filter.Admits(row)) continue;
        if (!scan_row(row)) return false;
      }
    } else if (filter.exact_rows != nullptr) {
      // The filter precomputed exactly the admissible rows (ascending).
      for (const uint32_t row : *filter.exact_rows) {
        if (!scan_row(row)) return false;
      }
    } else {
      const uint32_t hi = std::min<uint32_t>(
          filter.max_row, static_cast<uint32_t>(cstep.row_count));
      if (filter.member == nullptr) {
        // Hot path (unrestricted / windowed direct walk): no per-row check
        // beyond the loop bound.
        for (uint32_t row = filter.min_row; row < hi; ++row) {
          if (!scan_row(row)) return false;
        }
      } else {
        for (uint32_t row = filter.min_row; row < hi; ++row) {
          if (((*filter.member)[row] != 0) == filter.exclude) continue;
          if (!scan_row(row)) return false;
        }
      }
    }
    return true;
  };
  recurse(recurse, 0);
  counters->rows_scanned += rows_scanned;
  counters->assignments_found += assignments_found;
  return status;
}

Status ViolationEngine::ExecuteShardedInto(const Plan& plan,
                                           const ColumnarPlan& cplan,
                                           size_t num_threads, SetBuffer* sets,
                                           ExecCounters* counters) {
  using Clock = std::chrono::steady_clock;
  const BoundConstraint& ic = *plan.ic;
  const uint32_t driving_atom = plan.steps.front().atom_index;
  const uint32_t driving_rel = ic.atoms[driving_atom].relation_index;
  // A few shards per worker so an unlucky shard (one hot join key) does not
  // leave the other workers idle. Shard boundaries never influence the
  // output: the shards partition the driving atom's rows, so the
  // concatenated buffers hold exactly the serial scan's assignments.
  static constexpr size_t kShardsPerThread = 4;
  const auto ranges = ShardRanges(db_.table(driving_rel).size(),
                                  num_threads * kShardsPerThread);
  if (ranges.size() <= 1) {
    const AtomFilters* no_filters = nullptr;
    return ExecuteInto(plan, cplan, no_filters, sets, counters);
  }
  if (pool_ == nullptr || pool_->num_threads() < num_threads) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }

  std::vector<SetBuffer> shard_sets(
      ranges.size(), SetBuffer(ic.atoms.size(), options_.max_violation_sets));
  std::vector<ExecCounters> shard_counters(ranges.size());
  std::vector<Status> shard_status(ranges.size(), Status::OK());
  std::vector<uint64_t> shard_ns(ranges.size(), 0);
  ParallelFor(pool_.get(), ranges.size(), [&](size_t s) {
    const obs::ScopedWorkEvent shard_event("scan.shard");
    const auto start = Clock::now();
    AtomFilters shard_filters(ic.atoms.size());
    shard_filters[driving_atom].min_row =
        static_cast<uint32_t>(ranges[s].first);
    shard_filters[driving_atom].max_row =
        static_cast<uint32_t>(ranges[s].second);
    shard_status[s] = ExecuteInto(plan, cplan, &shard_filters, &shard_sets[s],
                                  &shard_counters[s]);
    shard_ns[s] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  });

  // Concatenate, then one sort deduplicates across shards (symmetric
  // constraints can canonicalise assignments from different shards to the
  // same tuple set); the result never depends on the shard order.
  const auto merge_start = Clock::now();
  for (size_t s = 0; s < ranges.size(); ++s) {
    DBREPAIR_RETURN_IF_ERROR(shard_status[s]);
    counters->MergeFrom(shard_counters[s]);
    sets->Absorb(&shard_sets[s]);
  }
  if (!sets->Compact()) return CapExceeded(options_.max_violation_sets);
  const auto merge_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now() - merge_start);

  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("scan.shards")->Add(ranges.size());
  metrics.GetCounter("scan.merge_ns")
      ->Add(static_cast<uint64_t>(merge_ns.count()));
  obs::Histogram* shard_hist = metrics.GetHistogram("scan.shard_ns");
  for (const uint64_t ns : shard_ns) shard_hist->Record(ns);
  return Status::OK();
}

Status ViolationEngine::EmitMinimal(uint32_t ic_index, SetBuffer* sets,
                                    std::vector<ViolationSet>* out) const {
  if (!sets->Compact()) return CapExceeded(options_.max_violation_sets);
  // ---- Minimality filter (Definition 2.4). ----
  // A set is dropped when a proper subset is also a violation set. Only
  // subset lengths some record has can match, so a constraint whose sets
  // all have one length (every non-self-join) probes nothing.
  const size_t stride = sets->stride;
  const size_t len_slot = stride - 1;
  std::vector<bool> has_length(stride, false);
  for (size_t i = 0; i < sets->size(); ++i) {
    has_length[sets->record(i)[len_slot]] = true;
  }
  std::vector<uint64_t> probe(stride, 0);
  for (size_t i = 0; i < sets->size(); ++i) {
    const uint64_t* rec = sets->record(i);
    const size_t k = rec[len_slot];
    bool minimal = true;
    if (k > 1 && k <= 16 &&
        std::find(has_length.begin() + 1, has_length.begin() + k, true) !=
            has_length.begin() + k) {
      for (uint32_t mask = 1; mask + 1 < (1u << k) && minimal; ++mask) {
        const auto len = static_cast<size_t>(std::popcount(mask));
        if (!has_length[len]) continue;
        size_t w = 0;
        for (size_t t = 0; t < k; ++t) {
          if (mask & (1u << t)) probe[w++] = rec[t];
        }
        std::fill(probe.begin() + static_cast<ptrdiff_t>(w),
                  probe.begin() + static_cast<ptrdiff_t>(len_slot), 0);
        probe[len_slot] = len;
        if (sets->Contains(probe.data())) minimal = false;
      }
    }
    if (!minimal) continue;
    ViolationSet& vs = out->emplace_back();
    vs.ic_index = ic_index;
    vs.tuples.reserve(k);
    for (size_t t = 0; t < k; ++t) {
      vs.tuples.push_back(TupleRef{static_cast<uint32_t>(rec[t] >> 32),
                                   static_cast<uint32_t>(rec[t])});
    }
  }
  return Status::OK();
}

Result<std::vector<ViolationSet>> ViolationEngine::Enumerate(
    const RunConstraint& run) {
  std::vector<ViolationSet> out;
  ExecCounters counters;
  for (const BoundConstraint& ic : ics_) {
    SetBuffer sets(ic.atoms.size(), options_.max_violation_sets);
    DBREPAIR_RETURN_IF_ERROR(run(ic, &sets, &counters));
    DBREPAIR_RETURN_IF_ERROR(EmitMinimal(ic.ic_index, &sets, &out));
  }
  const auto by_ic_then_tuples = [](const ViolationSet& a,
                                    const ViolationSet& b) {
    if (a.ic_index != b.ic_index) return a.ic_index < b.ic_index;
    return a.tuples < b.tuples;
  };
  // Each constraint's sets are emitted sorted, so `out` is already sorted
  // unless ics_ is not in ic_index order.
  if (!std::is_sorted(out.begin(), out.end(), by_ic_then_tuples)) {
    std::sort(out.begin(), out.end(), by_ic_then_tuples);
  }
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("engine.rows_scanned")->Add(counters.rows_scanned);
  metrics.GetCounter("engine.assignments_found")
      ->Add(counters.assignments_found);
  return out;
}

Result<std::vector<ViolationSet>> ViolationEngine::FindViolations() {
  DBREPAIR_RETURN_IF_ERROR(PrepareSnapshot());
  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  DBREPAIR_ASSIGN_OR_RETURN(
      std::vector<ViolationSet> out,
      Enumerate([&](const BoundConstraint& ic, SetBuffer* sets,
                    ExecCounters* counters) {
        const Plan plan = BuildPlan(ic);
        const ColumnarPlan cplan = PrepareColumnar(plan);
        if (num_threads <= 1 || plan.steps.empty()) {
          return ExecuteInto(plan, cplan, nullptr, sets, counters);
        }
        return ExecuteShardedInto(plan, cplan, num_threads, sets, counters);
      }));
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("engine.enumerations")->Add(1);
  metrics.GetCounter("engine.violation_sets")->Add(out.size());
  return out;
}

Result<std::vector<ViolationSet>> ViolationEngine::FindViolationsTouching(
    const std::vector<std::vector<uint32_t>>& dirty_rows) {
  if (dirty_rows.size() != db_.relation_count()) {
    return Status::InvalidArgument(
        "dirty_rows must have one row list per relation");
  }
  for (uint32_t r = 0; r < dirty_rows.size(); ++r) {
    const std::vector<uint32_t>& rows = dirty_rows[r];
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= db_.table(r).size() || (i > 0 && rows[i] <= rows[i - 1])) {
        return Status::InvalidArgument(
            "dirty_rows of '" + db_.table(r).schema().name() +
            "' must be strictly ascending row ids below its row count");
      }
    }
  }
  DBREPAIR_RETURN_IF_ERROR(PrepareSnapshot());
  // Mark the listed rows; the pivots' filters read the marks, and every
  // exit path below clears them again.
  dirty_marks_.resize(dirty_rows.size());
  uint64_t num_dirty = 0;
  for (uint32_t r = 0; r < dirty_rows.size(); ++r) {
    std::vector<uint8_t>& marks = dirty_marks_[r];
    if (marks.size() < db_.table(r).size()) marks.resize(db_.table(r).size());
    for (const uint32_t row : dirty_rows[r]) marks[row] = 1;
    num_dirty += dirty_rows[r].size();
  }

  Result<std::vector<ViolationSet>> out = Enumerate(
      [&](const BoundConstraint& ic, SetBuffer* sets, ExecCounters* counters) {
        // The delta-join partition: atoms before the pivot bind clean rows
        // only, the pivot binds dirty rows only, later atoms bind anything
        // — every assignment touching >= 1 dirty row lands in exactly one
        // pivot run.
        for (size_t pivot = 0; pivot < ic.atoms.size(); ++pivot) {
          const uint32_t pivot_rel = ic.atoms[pivot].relation_index;
          if (dirty_rows[pivot_rel].empty()) continue;  // nothing to bind
          AtomFilters filters(ic.atoms.size());
          for (size_t a = 0; a < ic.atoms.size(); ++a) {
            const uint32_t rel = ic.atoms[a].relation_index;
            if (a < pivot) {
              filters[a].member = &dirty_marks_[rel];
              filters[a].exclude = true;  // clean rows only
            } else if (a == pivot) {
              filters[a].member = &dirty_marks_[rel];
              filters[a].exact_rows = &dirty_rows[rel];  // dirty rows only
            }
          }
          const Plan pivot_plan = BuildPlan(ic, static_cast<int>(pivot));
          const ColumnarPlan cplan = PrepareColumnar(pivot_plan);
          DBREPAIR_RETURN_IF_ERROR(
              ExecuteInto(pivot_plan, cplan, &filters, sets, counters));
        }
        return Status::OK();
      });
  for (uint32_t r = 0; r < dirty_rows.size(); ++r) {
    for (const uint32_t row : dirty_rows[r]) dirty_marks_[r][row] = 0;
  }
  if (out.ok()) {
    obs::CurrentObs().metrics.GetCounter("engine.touching.dirty_rows")
        ->Add(num_dirty);
  }
  return out;
}

void ViolationEngine::NoteRowChanges(
    const std::vector<uint32_t>& appended_relations,
    const std::vector<CellRef>& updated_cells) {
  // An index keyed on an updated column holds stale codes. Appended rows
  // need nothing here: GetCodeIndex and GetStats compare row counts.
  for (const CellRef& cell : updated_cells) {
    for (auto it = code_index_cache_.begin();
         it != code_index_cache_.end();) {
      const std::vector<uint32_t>& key = it->first.second;
      const bool stale =
          it->first.first == cell.tuple.relation &&
          std::any_of(key.begin(), key.end(), [&cell](uint32_t k) {
            return (k & ~kValueKeyBit) == cell.attribute;
          });
      it = stale ? code_index_cache_.erase(it) : std::next(it);
    }
  }
  // Extend and patch, never rebuild: the shared dictionary stays
  // append-only, so every cached code index keeps its meaning. Without a
  // snapshot there is nothing to keep: the first Find* builds a current one.
  if (!has_snapshot_) return;
  snapshot_.ExtendAppended(db_, appended_relations);
  if (updated_cells.empty()) return;
  snapshot_.PatchCells(db_, updated_cells);
  obs::CurrentObs().metrics.GetCounter("scan.columnar.patched_cells")
      ->Add(updated_cells.size());
}

Result<bool> ViolationEngine::Satisfies(
    const Database& db, const std::vector<BoundConstraint>& ics,
    ViolationEngineOptions options) {
  ViolationEngine engine(db, ics, options);
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<ViolationSet> violations,
                            engine.FindViolations());
  return violations.empty();
}

bool ViolationEngine::SetSatisfies(
    const BoundConstraint& ic,
    const std::vector<std::pair<uint32_t, TupleView>>& tuples) {
  SatisfiesScratch scratch;
  return SetSatisfies(ic, tuples, CellOverride{tuples.size(), 0, nullptr},
                      &scratch);
}

bool ViolationEngine::SetSatisfies(
    const BoundConstraint& ic,
    const std::vector<std::pair<uint32_t, TupleView>>& tuples,
    const CellOverride& override, SatisfiesScratch* scratch) {
  const size_t num_vars = ic.var_names.size();
  const size_t mask_words = (num_vars + 63) / 64;
  std::vector<const Value*>& binding = scratch->binding;
  binding.assign(num_vars, nullptr);
  scratch->bound.resize(ic.atoms.size() * mask_words);

  // After each atom, the built-ins it completed — all variables bound, one
  // of them bound by this atom (`bound`) — must hold, so every built-in is
  // checked exactly once per assignment and a failing prefix is pruned
  // early.
  auto builtins_hold = [&](const uint64_t* bound) {
    const auto bound_here = [&](int32_t var) {
      return ((bound[var / 64] >> (var % 64)) & 1) != 0;
    };
    for (const BoundBuiltin& b : ic.builtins) {
      const Value* lhs = binding[b.lhs_var];
      const Value* rhs = b.rhs_is_var ? binding[b.rhs_var] : &b.rhs_const;
      if (lhs == nullptr || rhs == nullptr) continue;
      if (!bound_here(b.lhs_var) && !(b.rhs_is_var && bound_here(b.rhs_var))) {
        continue;  // checked at an earlier atom
      }
      if (!EvalCompare(*lhs, b.op, *rhs)) return false;
    }
    return true;
  };

  auto recurse = [&](auto&& self, size_t atom_index) -> bool {
    if (atom_index == ic.atoms.size()) {
      return true;  // a satisfying assignment: the set violates ic
    }
    const BoundAtom& atom = ic.atoms[atom_index];
    // Bit v: this depth bound variable v.
    uint64_t* bound = scratch->bound.data() + atom_index * mask_words;
    for (size_t m = 0; m < tuples.size(); ++m) {
      const auto& [relation, tuple] = tuples[m];
      if (relation != atom.relation_index) continue;
      if (tuple.arity() != atom.var_ids.size()) continue;
      std::fill(bound, bound + mask_words, 0);
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.var_ids.size() && ok; ++pos) {
        const int32_t vid = atom.var_ids[pos];
        const Value& v = m == override.member && pos == override.attribute
                             ? *override.value
                             : tuple.value(pos);
        if (vid < 0) {
          ok = v == atom.constants[pos];
        } else if (binding[vid] != nullptr) {
          ok = v == *binding[vid];
        } else {
          binding[vid] = &v;
          bound[vid / 64] |= uint64_t{1} << (vid % 64);
        }
      }
      if (ok && builtins_hold(bound) && self(self, atom_index + 1)) {
        return true;
      }
      for (size_t w = 0; w < mask_words; ++w) {
        for (uint64_t bits = bound[w]; bits != 0; bits &= bits - 1) {
          binding[w * 64 + static_cast<size_t>(std::countr_zero(bits))] =
              nullptr;
        }
      }
    }
    return false;
  };
  return !recurse(recurse, 0);
}

}  // namespace dbrepair
