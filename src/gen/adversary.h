#ifndef DBREPAIR_GEN_ADVERSARY_H_
#define DBREPAIR_GEN_ADVERSARY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "constraints/ast.h"
#include "gen/client_buy.h"
#include "storage/database.h"

namespace dbrepair {

/// A worst-case high-degree adversary: drives Deg(D, IC) to exactly
/// `target_degree`, stressing the degree-bounded complexity and the
/// layer solver's f = max_frequency() approximation factor.
///
///   AHub(K, G, A)    key {K},    F = {A}
///   ASat(SID, G, B)  key {SID},  F = {B}
///   adv1: :- AHub(k, g, a), ASat(s, g, b), a < 50, b > 50
///
/// Every hub owns a private group G = K, with exactly `target_degree`
/// violating satellites (B > 50) plus `clean_spokes` consistent ones. Every
/// hub is violating (A < 50) when target_degree > 0, so each hub sits in
/// exactly target_degree violation sets while each satellite sits in one:
/// Deg(D, IC) == target_degree, by construction, independent of the seed.
/// The per-group structure also makes the optimal cover analyzable: the
/// hub fix (A -> 50) covers a whole group at once, competing against
/// target_degree individual satellite fixes (B -> 50).
struct AdversaryOptions {
  size_t num_hubs = 10;
  /// The exact Deg(D, IC) of the generated instance (0 = consistent).
  size_t target_degree = 8;
  /// Consistent satellites per hub, padding the join without adding
  /// violations.
  size_t clean_spokes = 2;
  /// Multiplies every flexible-attribute weight (scaling invariance).
  double alpha_scale = 1.0;
  uint64_t seed = 1;
};

/// Generates the workload. Deterministic in the seed.
Result<GeneratedWorkload> GenerateAdversary(const AdversaryOptions& options);

std::shared_ptr<const Schema> MakeAdversarySchema(double alpha_scale = 1.0);
std::vector<DenialConstraint> MakeAdversaryConstraints();

}  // namespace dbrepair

#endif  // DBREPAIR_GEN_ADVERSARY_H_
