#include "repair/setcover/instance.h"

namespace dbrepair {

const char* SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kGreedy:
      return "greedy";
    case SolverKind::kModifiedGreedy:
      return "modified-greedy";
    case SolverKind::kLazyGreedy:
      return "lazy-greedy";
    case SolverKind::kLayer:
      return "layer";
    case SolverKind::kModifiedLayer:
      return "modified-layer";
    case SolverKind::kExact:
      return "exact";
  }
  return "unknown";
}

}  // namespace dbrepair
