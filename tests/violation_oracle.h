#ifndef DBREPAIR_TESTS_VIOLATION_ORACLE_H_
#define DBREPAIR_TESTS_VIOLATION_ORACLE_H_

// The brute-force reference for ViolationEngine: tries every assignment of
// stored tuples to a constraint's atoms and keeps the inclusion-minimal
// tuple sets of the satisfying ones. It shares nothing with the engine but
// Value and EvalCompare, so the engine's join order, code indexes, column
// kinds and minimality filter are all checked against it.
//
// Semantics (the engine's contract): repeated variables and constant
// positions compare with Value ==, and so does an explicit `x = y`
// between variables, because the engine merges it into a join class.
// Every other built-in uses EvalCompare.

#include <algorithm>
#include <set>
#include <vector>

#include "constraints/ast.h"
#include "constraints/violation.h"
#include "storage/database.h"

namespace dbrepair {

inline bool OracleBuiltinHolds(const BoundBuiltin& b,
                               const std::vector<const Value*>& binding) {
  const Value& lhs = *binding[b.lhs_var];
  if (b.rhs_is_var && b.op == CompareOp::kEq) {
    return lhs == *binding[b.rhs_var];
  }
  return EvalCompare(lhs, b.op, b.rhs_is_var ? *binding[b.rhs_var]
                                             : b.rhs_const);
}

/// The distinct tuple sets of every satisfying assignment of `ic` over
/// `db` (not yet minimal).
inline std::set<std::vector<TupleRef>> OracleRawSets(
    const Database& db, const BoundConstraint& ic) {
  std::set<std::vector<TupleRef>> out;
  std::vector<const Value*> binding(ic.var_names.size(), nullptr);
  std::vector<TupleRef> current(ic.atoms.size());

  auto recurse = [&](auto&& self, size_t atom_index) -> void {
    if (atom_index == ic.atoms.size()) {
      for (const BoundBuiltin& b : ic.builtins) {
        if (!OracleBuiltinHolds(b, binding)) return;
      }
      std::vector<TupleRef> canonical = current;
      std::sort(canonical.begin(), canonical.end());
      canonical.erase(std::unique(canonical.begin(), canonical.end()),
                      canonical.end());
      out.insert(std::move(canonical));
      return;
    }
    const BoundAtom& atom = ic.atoms[atom_index];
    const Table& table = db.table(atom.relation_index);
    for (uint32_t row = 0; row < table.size(); ++row) {
      const TupleView tuple = table.row(row);
      bool ok = true;
      std::vector<int32_t> bound_here;
      for (uint32_t pos = 0; pos < atom.var_ids.size() && ok; ++pos) {
        const int32_t vid = atom.var_ids[pos];
        if (vid < 0) {
          ok = tuple.value(pos) == atom.constants[pos];
        } else if (binding[vid] != nullptr) {
          ok = tuple.value(pos) == *binding[vid];
        } else {
          binding[vid] = &tuple.value(pos);
          bound_here.push_back(vid);
        }
      }
      if (ok) {
        current[atom_index] = TupleRef{atom.relation_index, row};
        self(self, atom_index + 1);
      }
      for (const int32_t vid : bound_here) binding[vid] = nullptr;
    }
  };
  recurse(recurse, 0);
  return out;
}

/// Keeps only the inclusion-minimal sets.
inline std::set<std::vector<TupleRef>> Minimalise(
    const std::set<std::vector<TupleRef>>& sets) {
  std::set<std::vector<TupleRef>> out;
  for (const auto& candidate : sets) {
    bool minimal = true;
    for (const auto& other : sets) {
      if (other.size() >= candidate.size() || other == candidate) continue;
      if (std::includes(candidate.begin(), candidate.end(), other.begin(),
                        other.end())) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.insert(candidate);
  }
  return out;
}

/// Every minimal violation set of every constraint, in the engine's output
/// order (ic_index, then tuples), so it compares with FindViolations()
/// element by element.
inline std::vector<ViolationSet> OracleViolations(
    const Database& db, const std::vector<BoundConstraint>& ics) {
  std::vector<ViolationSet> out;
  for (const BoundConstraint& ic : ics) {
    for (const std::vector<TupleRef>& tuples :
         Minimalise(OracleRawSets(db, ic))) {
      ViolationSet vs;
      vs.ic_index = ic.ic_index;
      vs.tuples = tuples;
      out.push_back(std::move(vs));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ViolationSet& a, const ViolationSet& b) {
              if (a.ic_index != b.ic_index) return a.ic_index < b.ic_index;
              return a.tuples < b.tuples;
            });
  return out;
}

}  // namespace dbrepair

#endif  // DBREPAIR_TESTS_VIOLATION_ORACLE_H_
