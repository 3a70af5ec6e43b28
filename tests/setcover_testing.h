#ifndef DBREPAIR_TESTS_SETCOVER_TESTING_H_
#define DBREPAIR_TESTS_SETCOVER_TESTING_H_

// Cover checks shared by the set-cover tests, over the frozen view every
// solver reads.

#include <cstdint>
#include <vector>

#include "repair/setcover/csr_instance.h"

namespace dbrepair {

/// True iff `chosen` covers every element of `instance`.
inline bool IsCover(const CsrSetCoverInstance& instance,
                    const std::vector<uint32_t>& chosen) {
  std::vector<bool> covered(instance.num_elements(), false);
  for (const uint32_t s : chosen) {
    for (const uint32_t e : instance.elements_of(s)) covered[e] = true;
  }
  for (const bool c : covered) {
    if (!c) return false;
  }
  return true;
}

/// Total weight of the given set selection.
inline double SelectionWeight(const CsrSetCoverInstance& instance,
                              const std::vector<uint32_t>& chosen) {
  double total = 0.0;
  for (const uint32_t s : chosen) total += instance.weight(s);
  return total;
}

}  // namespace dbrepair

#endif  // DBREPAIR_TESTS_SETCOVER_TESTING_H_
