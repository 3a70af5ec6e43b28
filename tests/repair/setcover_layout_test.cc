// Differential tests for the flat CSR set-cover layout. Every solver must
// produce a byte-identical cover (bit-equal weights) on two physical
// layouts of one logical instance: a fresh Freeze of the build record and
// the same instance grown epoch by epoch through AppendEpoch, whose spans
// are relocated and whose arenas carry dead slack. The suite also checks
// both views against reference links computed here from the build record,
// the epoch-append path against a from-scratch Freeze (span relocation,
// arena compaction, delta rejection), the incremental solver, pruning, and
// end-to-end repairs (one-shot and per-session-batch) at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/client_buy.h"
#include "repair/api.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/incremental.h"
#include "repair/setcover/prune.h"
#include "repair/setcover/solvers.h"
#include "setcover_testing.h"

namespace dbrepair {
namespace {

// ---- Random instance shapes. All are feasible by construction (singleton
// backstop for elements no random set picked up). ----

// Bounded degree: sets of size <= 4, each element in ~2-3 sets — the shape
// repair instances take under the paper's bounded-degree assumption.
SetCoverInstance SparseInstance(size_t elements, uint64_t seed) {
  Rng rng(seed);
  SetCoverInstance instance;
  instance.num_elements = elements;
  std::vector<bool> covered(elements, false);
  const size_t sets = elements * 3 / 2;
  for (size_t s = 0; s < sets; ++s) {
    std::vector<uint32_t> elems;
    const size_t size = 1 + rng.Uniform(4);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(static_cast<uint32_t>(rng.Uniform(elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.sets.push_back(std::move(elems));
    instance.weights.push_back(0.5 +
                               static_cast<double>(rng.Uniform(1000)) / 7.0);
  }
  for (uint32_t e = 0; e < elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(50.0);
    }
  }
  return instance;
}

// High frequency: large sets over a small universe, so ties and heavy
// cross-link fan-out dominate.
SetCoverInstance DenseInstance(uint64_t seed) {
  Rng rng(seed);
  SetCoverInstance instance;
  const size_t elements = 60;
  instance.num_elements = elements;
  std::vector<bool> covered(elements, false);
  for (size_t s = 0; s < 120; ++s) {
    std::vector<uint32_t> elems;
    const size_t size = 2 + rng.Uniform(15);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(static_cast<uint32_t>(rng.Uniform(elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.sets.push_back(std::move(elems));
    // Integer weights on purpose: they maximise exact effective-weight ties,
    // stressing the smaller-id tie-break on both representations.
    instance.weights.push_back(1.0 + static_cast<double>(rng.Uniform(8)));
  }
  for (uint32_t e = 0; e < elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(5.0);
    }
  }
  return instance;
}

// Skewed frequency: a handful of hot elements sit in nearly every set, the
// rest are sparse — max_frequency() far above the average.
SetCoverInstance HotspotInstance(size_t elements, uint64_t seed) {
  Rng rng(seed);
  SetCoverInstance instance;
  instance.num_elements = elements;
  std::vector<bool> covered(elements, false);
  const size_t sets = elements;
  for (size_t s = 0; s < sets; ++s) {
    std::vector<uint32_t> elems;
    elems.push_back(static_cast<uint32_t>(rng.Uniform(4)));  // hot element
    const size_t size = 1 + rng.Uniform(3);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(static_cast<uint32_t>(rng.Uniform(elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.sets.push_back(std::move(elems));
    instance.weights.push_back(0.25 +
                               static_cast<double>(rng.Uniform(400)) / 3.0);
  }
  for (uint32_t e = 0; e < elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(20.0);
    }
  }
  return instance;
}

std::vector<SetCoverInstance> AllShapes(uint64_t seed) {
  std::vector<SetCoverInstance> shapes;
  shapes.push_back(SparseInstance(400, seed));
  shapes.push_back(DenseInstance(seed));
  shapes.push_back(HotspotInstance(200, seed));
  return shapes;
}

// The reference element->set links of a build record: per element, the
// ascending ids of the sets containing it.
std::vector<std::vector<uint32_t>> ReferenceLinks(
    const SetCoverInstance& record) {
  std::vector<std::vector<uint32_t>> links(record.num_elements);
  for (uint32_t s = 0; s < record.sets.size(); ++s) {
    for (const uint32_t e : record.sets[s]) links[e].push_back(s);
  }
  return links;
}

// Checks `view` is the exact logical image of `record`: same universe,
// bit-equal weights, identical per-set spans and per-element link lists.
void ExpectMirrors(const CsrSetCoverInstance& view,
                   const SetCoverInstance& record, const std::string& label) {
  ASSERT_EQ(view.num_elements(), record.num_elements) << label;
  ASSERT_EQ(view.num_sets(), record.sets.size()) << label;
  size_t max_frequency = 0;
  const std::vector<std::vector<uint32_t>> links = ReferenceLinks(record);
  for (uint32_t s = 0; s < record.sets.size(); ++s) {
    EXPECT_EQ(view.weight(s), record.weights[s]) << label << " set " << s;
    const auto span = view.elements_of(s);
    EXPECT_EQ(std::vector<uint32_t>(span.begin(), span.end()), record.sets[s])
        << label << " set " << s;
  }
  for (uint32_t e = 0; e < record.num_elements; ++e) {
    const auto span = view.sets_of(e);
    EXPECT_EQ(std::vector<uint32_t>(span.begin(), span.end()), links[e])
        << label << " element " << e;
    max_frequency = std::max(max_frequency, links[e].size());
  }
  EXPECT_EQ(view.max_frequency(), max_frequency) << label;
}

// Builds `record`'s instance through a run of epochs instead of one Freeze:
// the first epoch appends every set holding only its elements from the
// first chunk of ids (possibly none), and each later epoch appends the next
// chunk and extends the sets covering it. Every extension relocates a span,
// so the arenas end up fragmented (and possibly compacted) while the
// logical instance equals Freeze(record).
CsrSetCoverInstance GrowByEpochs(const SetCoverInstance& record,
                                 uint64_t seed) {
  Rng rng(seed);
  CsrSetCoverInstance view;
  std::vector<size_t> next(record.sets.size(), 0);
  size_t done = 0;
  bool first = true;
  while (first || done < record.num_elements) {
    const size_t end =
        std::min(record.num_elements, done + 1 + rng.Uniform(16));
    CsrEpochDelta delta;
    delta.new_elements = end - done;
    for (uint32_t s = 0; s < record.sets.size(); ++s) {
      std::vector<uint32_t> run;
      while (next[s] < record.sets[s].size() && record.sets[s][next[s]] < end) {
        run.push_back(record.sets[s][next[s]++]);
      }
      if (first) {
        delta.added.push_back({record.weights[s], std::move(run)});
      } else if (!run.empty()) {
        CsrEpochDelta::Extension ext{s, std::move(run), {}};
        if (rng.Uniform(2) == 0) ext.weight = record.weights[s];
        delta.extended.push_back(std::move(ext));
      }
    }
    // Announce the extensions out of set-id order: the link arena must come
    // out ascending regardless.
    std::reverse(delta.extended.begin(), delta.extended.end());
    EXPECT_TRUE(view.AppendEpoch(delta).ok());
    EXPECT_TRUE(view.Validate().ok());
    done = end;
    first = false;
  }
  return view;
}

void ExpectIdenticalSolutions(const SetCoverSolution& frozen,
                              const SetCoverSolution& grown,
                              const std::string& label) {
  ASSERT_EQ(frozen.chosen, grown.chosen) << label;
  EXPECT_EQ(frozen.weight, grown.weight) << label;  // bit-equal fp sums
  EXPECT_EQ(frozen.iterations, grown.iterations) << label;
}

// The two layouts of one logical instance every differential below
// compares: a fresh Freeze (contiguous arenas) and the same instance grown
// epoch by epoch (relocated spans, dead slack). Solvers must not see the
// difference.
struct Layouts {
  SetCoverInstance record;
  CsrSetCoverInstance frozen;
  CsrSetCoverInstance grown;
};

std::vector<Layouts> AllLayouts(uint64_t seed) {
  std::vector<Layouts> out;
  for (SetCoverInstance& record : AllShapes(seed)) {
    Layouts layouts;
    layouts.frozen = CsrSetCoverInstance::Freeze(record);
    layouts.grown = GrowByEpochs(record, seed * 31 + out.size());
    layouts.record = std::move(record);
    out.push_back(std::move(layouts));
  }
  return out;
}

class LayoutDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayoutDifferentialTest, FreezeRoundTripsAndValidates) {
  for (const Layouts& layouts : AllLayouts(GetParam())) {
    ASSERT_TRUE(layouts.frozen.Validate().ok());
    ExpectMirrors(layouts.frozen, layouts.record, "frozen");
    EXPECT_EQ(layouts.frozen.dead_slots(), 0u);
    EXPECT_GT(layouts.frozen.arena_bytes(), 0u);
    ASSERT_TRUE(layouts.grown.Validate().ok());
    ExpectMirrors(layouts.grown, layouts.record, "grown");
  }
}

TEST_P(LayoutDifferentialTest, GreedyFamilyIsByteIdenticalAcrossLayouts) {
  for (const Layouts& layouts : AllLayouts(GetParam())) {
    for (const SolverKind kind :
         {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
          SolverKind::kLazyGreedy}) {
      SCOPED_TRACE(SolverKindName(kind));
      auto frozen = SolveSetCover(kind, layouts.frozen);
      ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
      auto grown = SolveSetCover(kind, layouts.grown);
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
      ExpectIdenticalSolutions(*frozen, *grown, SolverKindName(kind));
      EXPECT_TRUE(IsCover(layouts.frozen, frozen->chosen));
    }
    // The three greedy variants agree with each other.
    auto eager = GreedySetCover(layouts.frozen);
    auto modified = ModifiedGreedySetCover(layouts.frozen);
    auto lazy = LazyGreedySetCover(layouts.frozen);
    ASSERT_TRUE(eager.ok() && modified.ok() && lazy.ok());
    EXPECT_EQ(eager->chosen, modified->chosen);
    EXPECT_EQ(eager->chosen, lazy->chosen);
  }
}

TEST_P(LayoutDifferentialTest, LayerFamilyMatchesAcrossLayouts) {
  for (const Layouts& layouts : AllLayouts(GetParam())) {
    for (const SolverKind kind :
         {SolverKind::kLayer, SolverKind::kModifiedLayer}) {
      SCOPED_TRACE(SolverKindName(kind));
      auto frozen = SolveSetCover(kind, layouts.frozen);
      ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
      auto grown = SolveSetCover(kind, layouts.grown);
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
      ExpectIdenticalSolutions(*frozen, *grown, SolverKindName(kind));
      EXPECT_TRUE(IsCover(layouts.frozen, frozen->chosen));
    }
    // The refined (no-redundant-tight-sets) variant too.
    LayerOptions refined;
    refined.add_redundant_tight_sets = false;
    auto frozen = LayerSetCover(layouts.frozen, refined);
    auto grown = LayerSetCover(layouts.grown, refined);
    ASSERT_TRUE(frozen.ok() && grown.ok());
    ExpectIdenticalSolutions(*frozen, *grown, "layer-refined");
  }
}

TEST_P(LayoutDifferentialTest, ExactMatchesOnSmallInstances) {
  // Exact is exponential; a small instance keeps the tree tractable while
  // still branching through the cross links.
  const SetCoverInstance record = SparseInstance(24, GetParam());
  const CsrSetCoverInstance frozen = CsrSetCoverInstance::Freeze(record);
  const CsrSetCoverInstance grown = GrowByEpochs(record, GetParam());
  auto from_frozen = ExactSetCover(frozen);
  ASSERT_TRUE(from_frozen.ok()) << from_frozen.status().ToString();
  auto from_grown = ExactSetCover(grown);
  ASSERT_TRUE(from_grown.ok()) << from_grown.status().ToString();
  ExpectIdenticalSolutions(*from_frozen, *from_grown, "exact");
  EXPECT_TRUE(IsCover(frozen, from_frozen->chosen));
}

TEST_P(LayoutDifferentialTest, PruneRemovesTheSameSetsOnBothViews) {
  for (const Layouts& layouts : AllLayouts(GetParam())) {
    // Layer covers routinely contain redundant sets; prune both views.
    auto cover = LayerSetCover(layouts.frozen);
    ASSERT_TRUE(cover.ok()) << cover.status().ToString();
    const SetCoverSolution frozen = PruneRedundantSets(layouts.frozen, *cover);
    const SetCoverSolution grown = PruneRedundantSets(layouts.grown, *cover);
    EXPECT_EQ(frozen.chosen, grown.chosen);
    EXPECT_EQ(frozen.weight, grown.weight);
    EXPECT_TRUE(IsCover(layouts.frozen, frozen.chosen));
    EXPECT_LE(frozen.weight, cover->weight);
  }
}

// `got` picks exactly the sets `want` picks, in the same order, with a
// bit-equal weight. Iteration counts are left out: they count different
// steps in different implementations.
void ExpectSameCover(const SetCoverSolution& want, const SetCoverSolution& got,
                     const std::string& label) {
  EXPECT_EQ(want.chosen, got.chosen) << label;
  EXPECT_EQ(want.weight, got.weight) << label;
}

TEST_P(LayoutDifferentialTest, IncrementalOneShotEqualsModifiedGreedy) {
  // A new solver's first SolveDelta is Algorithm 5 itself, the loop
  // ModifiedGreedySetCover runs, so it is held to the independent greedy
  // implementations instead: Algorithm 1 and the lazy variant pick the
  // modified greedy's cover on the fresh Freeze, and the solver must pick
  // it on both layouts.
  for (const Layouts& layouts : AllLayouts(GetParam())) {
    auto greedy = GreedySetCover(layouts.frozen);
    auto lazy = LazyGreedySetCover(layouts.frozen);
    ASSERT_TRUE(greedy.ok() && lazy.ok());
    for (const bool grown : {false, true}) {
      const std::string label = grown ? "grown" : "frozen";
      IncrementalGreedySolver solver(grown ? &layouts.grown : &layouts.frozen);
      auto incremental = solver.SolveDelta();
      ASSERT_TRUE(incremental.ok())
          << label << ": " << incremental.status().ToString();
      ExpectSameCover(*greedy, *incremental, "greedy vs " + label);
      ExpectSameCover(*lazy, *incremental, "lazy greedy vs " + label);
      EXPECT_EQ(solver.num_uncovered(), 0u) << label;
    }
  }
}

// ---- Epoch append: the session's growth path, synthetically. ----

TEST_P(LayoutDifferentialTest, AppendedEpochsMirrorAFreshFreeze) {
  Rng rng(GetParam() * 977 + 5);
  SetCoverInstance record = SparseInstance(120, GetParam());
  CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(record);

  for (int epoch = 0; epoch < 8; ++epoch) {
    CsrEpochDelta delta;
    const size_t new_elements = 4 + rng.Uniform(8);
    const auto first_new_element = static_cast<uint32_t>(record.num_elements);
    const auto first_new_set = static_cast<uint32_t>(record.sets.size());
    delta.new_elements = new_elements;
    record.num_elements += new_elements;

    // Extend a few pre-epoch sets with fresh elements (each set at most
    // once, like the fix-key dedup), occasionally reweighting.
    uint32_t next = first_new_element;
    std::vector<bool> touched(first_new_set, false);
    const size_t extensions = 1 + rng.Uniform(3);
    for (size_t x = 0; x < extensions && next < record.num_elements; ++x) {
      const auto set_id = static_cast<uint32_t>(rng.Uniform(first_new_set));
      if (touched[set_id]) continue;
      touched[set_id] = true;
      CsrEpochDelta::Extension ext{set_id, {next}, {}};
      if (rng.Uniform(2) == 0) {
        record.weights[set_id] += 1.25;
        ext.weight = record.weights[set_id];
      }
      record.sets[set_id].push_back(next++);
      delta.extended.push_back(std::move(ext));
    }
    // New sets over the remaining fresh elements keep the grown instance
    // feasible.
    while (next < record.num_elements) {
      std::vector<uint32_t> elems;
      const uint32_t take = 1 + static_cast<uint32_t>(rng.Uniform(3));
      for (uint32_t i = 0; i < take && next < record.num_elements; ++i) {
        elems.push_back(next++);
      }
      const double weight = 0.5 + static_cast<double>(rng.Uniform(100)) / 9.0;
      record.sets.push_back(elems);
      record.weights.push_back(weight);
      delta.added.push_back({weight, std::move(elems)});
    }

    ASSERT_TRUE(csr.AppendEpoch(delta).ok());
    ASSERT_TRUE(csr.Validate().ok());
    ExpectMirrors(csr, record, "epoch " + std::to_string(epoch));

    // The appended view must solve exactly like a fresh freeze.
    const CsrSetCoverInstance fresh = CsrSetCoverInstance::Freeze(record);
    for (const SolverKind kind :
         {SolverKind::kModifiedGreedy, SolverKind::kModifiedLayer}) {
      SCOPED_TRACE(std::string(SolverKindName(kind)) + " epoch " +
                   std::to_string(epoch));
      auto appended = SolveSetCover(kind, csr);
      auto refrozen = SolveSetCover(kind, fresh);
      ASSERT_TRUE(appended.ok() && refrozen.ok());
      EXPECT_EQ(refrozen->chosen, appended->chosen);
      EXPECT_EQ(refrozen->weight, appended->weight);
    }
    // And the appended view's modified greedy cover is Algorithm 1's.
    auto greedy = GreedySetCover(fresh);
    auto modified = ModifiedGreedySetCover(csr);
    ASSERT_TRUE(greedy.ok() && modified.ok());
    ExpectSameCover(*greedy, *modified,
                    "greedy vs appended, epoch " + std::to_string(epoch));
  }
}

TEST(LayoutEpochTest, RelocationCompactsOnceDeadSlackDominates) {
  // Repeatedly extend one big set: every epoch relocates its whole span to
  // the arena tail, so dead slack accumulates until the compaction
  // threshold (half the arena) trips. The view must mirror the record
  // throughout.
  SetCoverInstance record;
  record.num_elements = 64;
  for (uint32_t e = 0; e < 64; ++e) {
    record.sets.push_back({e});
    record.weights.push_back(1.0);
  }
  std::vector<uint32_t> big;
  for (uint32_t e = 0; e < 48; ++e) big.push_back(e);
  record.sets.push_back(big);
  record.weights.push_back(3.0);

  CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(record);
  const uint32_t big_id = 64;
  size_t max_dead = 0;
  bool compacted = false;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const auto fresh = static_cast<uint32_t>(record.num_elements);
    ++record.num_elements;
    record.sets[big_id].push_back(fresh);
    // Singleton backstop keeps the instance feasible.
    record.sets.push_back({fresh});
    record.weights.push_back(1.0);
    CsrEpochDelta delta;
    delta.new_elements = 1;
    delta.extended.push_back({big_id, {fresh}, {}});
    delta.added.push_back({1.0, {fresh}});

    const size_t dead_before = csr.dead_slots();
    ASSERT_TRUE(csr.AppendEpoch(delta).ok());
    if (csr.dead_slots() < dead_before) compacted = true;
    max_dead = std::max(max_dead, csr.dead_slots());
    ASSERT_TRUE(csr.Validate().ok());
    ExpectMirrors(csr, record, "epoch " + std::to_string(epoch));
  }
  EXPECT_TRUE(compacted) << "dead slack never triggered a compaction "
                         << "(max dead slots seen: " << max_dead << ")";

  // Modified greedy on the relocated, compacted view picks what the
  // independent greedy implementations pick on a fresh Freeze.
  const CsrSetCoverInstance fresh = CsrSetCoverInstance::Freeze(record);
  auto greedy = GreedySetCover(fresh);
  auto lazy = LazyGreedySetCover(fresh);
  auto flat = ModifiedGreedySetCover(csr);
  ASSERT_TRUE(greedy.ok() && lazy.ok() && flat.ok());
  ExpectSameCover(*greedy, *flat, "greedy");
  ExpectSameCover(*lazy, *flat, "lazy greedy");
}

TEST(LayoutEpochTest, AppendEpochKeepsLinksAscending) {
  // Sets 1 and 0 (announced in that order) and a new set all cover the one
  // fresh element: its link list must still come out ascending.
  SetCoverInstance record;
  record.num_elements = 2;
  record.sets = {{0}, {1}};
  record.weights = {1.0, 2.0};
  CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(record);
  CsrEpochDelta delta;
  delta.new_elements = 1;
  delta.extended.push_back({1, {2}, 0.5});
  delta.extended.push_back({0, {2}, {}});
  delta.added.push_back({3.0, {2}});
  ASSERT_TRUE(csr.AppendEpoch(delta).ok());
  ASSERT_TRUE(csr.Validate().ok());
  record.num_elements = 3;
  record.sets = {{0, 2}, {1, 2}, {2}};
  record.weights = {1.0, 0.5, 3.0};
  ExpectMirrors(csr, record, "one epoch");
  EXPECT_EQ(csr.max_frequency(), 3u);
}

TEST(LayoutEpochTest, AppendEpochRejectsStaleOrNonAppendOnlyDeltas) {
  CsrSetCoverInstance csr =
      CsrSetCoverInstance::Freeze(SparseInstance(40, 3));
  const size_t elements = csr.num_elements();
  const size_t sets = csr.num_sets();
  const size_t bytes = csr.arena_bytes();
  const auto fresh = static_cast<uint32_t>(elements);

  std::vector<std::pair<std::string, CsrEpochDelta>> bad;
  // A delta claiming fewer new elements than its sets link.
  CsrEpochDelta wrong;
  wrong.new_elements = 1;
  wrong.added.push_back({1.0, {fresh, fresh + 1}});
  bad.emplace_back("wrong count", wrong);
  // A stale extension: it links a pre-epoch element, after a valid new set
  // whose links the append would otherwise already have laid down.
  CsrEpochDelta stale;
  stale.new_elements = 2;
  stale.added.push_back({1.0, {fresh, fresh + 1}});
  stale.extended.push_back({0, {0}, {}});
  bad.emplace_back("stale", stale);
  // An appended set covering a pre-epoch element.
  CsrEpochDelta old_element;
  old_element.new_elements = 1;
  old_element.added.push_back({1.0, {0, fresh}});
  bad.emplace_back("pre-epoch element", old_element);
  // An extension of a set the view has never seen.
  CsrEpochDelta unknown;
  unknown.new_elements = 1;
  unknown.extended.push_back({static_cast<uint32_t>(sets), {fresh}, {}});
  bad.emplace_back("unknown set", unknown);
  // One set extended twice in one epoch.
  CsrEpochDelta twice;
  twice.new_elements = 2;
  twice.extended.push_back({0, {fresh}, {}});
  twice.extended.push_back({0, {fresh + 1}, {}});
  bad.emplace_back("extended twice", twice);
  // An empty extension and an unsorted new set.
  CsrEpochDelta empty;
  empty.new_elements = 1;
  empty.added.push_back({1.0, {fresh}});
  empty.extended.push_back({0, {}, {}});
  bad.emplace_back("empty extension", empty);
  CsrEpochDelta unsorted;
  unsorted.new_elements = 2;
  unsorted.added.push_back({1.0, {fresh + 1, fresh}});
  bad.emplace_back("unsorted", unsorted);

  for (const auto& [label, delta] : bad) {
    EXPECT_FALSE(csr.AppendEpoch(delta).ok()) << label;
    // A rejected delta leaves the view untouched.
    EXPECT_TRUE(csr.Validate().ok()) << label;
    EXPECT_EQ(csr.num_elements(), elements) << label;
    EXPECT_EQ(csr.num_sets(), sets) << label;
    EXPECT_EQ(csr.arena_bytes(), bytes) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutDifferentialTest,
                         ::testing::Range<uint64_t>(1, 6));

// ---- End-to-end: the repair pipelines over the frozen view. ----

void ExpectSameDatabase(const Database& a, const Database& b,
                        const std::string& label) {
  ASSERT_EQ(a.relation_count(), b.relation_count()) << label;
  for (size_t r = 0; r < a.relation_count(); ++r) {
    ASSERT_EQ(a.table(r).size(), b.table(r).size())
        << label << " relation " << r;
    for (size_t row = 0; row < a.table(r).size(); ++row) {
      ASSERT_TRUE(a.table(r).row(row) == b.table(r).row(row))
          << label << " relation " << r << " row " << row;
    }
  }
}

TEST(LayoutPipelineTest, OneShotRepairIsThreadCountInvariant) {
  ClientBuyOptions gen;
  gen.num_clients = 150;
  gen.inconsistency_ratio = 0.35;
  gen.seed = 21;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
        SolverKind::kLazyGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer}) {
    SCOPED_TRACE(SolverKindName(kind));
    RepairOptions serial;
    serial.solver = kind;
    serial.num_threads = 1;
    auto one = RepairDatabase(workload->db, workload->ics, serial);
    ASSERT_TRUE(one.ok()) << one.status().ToString();

    RepairOptions threaded;
    threaded.solver = kind;
    threaded.num_threads = 4;
    auto four = RepairDatabase(workload->db, workload->ics, threaded);
    ASSERT_TRUE(four.ok()) << four.status().ToString();

    ExpectSameDatabase(one->repaired, four->repaired, SolverKindName(kind));
    EXPECT_EQ(one->stats.cover_weight, four->stats.cover_weight);
  }
}

// Streams every row of `db` into a session over an empty base in `batches`
// chunks; checks the frozen view validates after every batch.
Result<std::unique_ptr<RepairSession>> ReplayChecked(
    const Database& db, const std::vector<DenialConstraint>& ics,
    size_t batches, size_t num_threads) {
  std::vector<BatchRow> rows;
  size_t max_rows = 0;
  for (size_t r = 0; r < db.relation_count(); ++r) {
    max_rows = std::max(max_rows, db.table(r).size());
  }
  for (size_t i = 0; i < max_rows; ++i) {
    for (size_t r = 0; r < db.relation_count(); ++r) {
      if (i >= db.table(r).size()) continue;
      rows.push_back(BatchRow{db.schema().relations()[r].name(),
                              db.table(r).row(i).values()});
    }
  }
  const Database empty(db.schema_ptr());
  RepairOptions options;
  options.num_threads = num_threads;
  DBREPAIR_ASSIGN_OR_RETURN(auto session,
                            RepairSession::Open(empty, ics, options));
  const size_t chunk = (rows.size() + batches - 1) / batches;
  for (size_t start = 0; start < rows.size(); start += chunk) {
    const size_t end = std::min(rows.size(), start + chunk);
    std::vector<BatchRow> batch(rows.begin() + start, rows.begin() + end);
    DBREPAIR_RETURN_IF_ERROR(session->ApplyBatch(batch).status());
    DBREPAIR_RETURN_IF_ERROR(session->frozen_instance().Validate());
  }
  return session;
}

TEST(LayoutPipelineTest, SessionEpochsStayMirroredAndThreadCountInvariant) {
  ClientBuyOptions gen;
  gen.num_clients = 120;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 9;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  for (const size_t k : {size_t{1}, size_t{6}}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    auto serial = ReplayChecked(workload->db, workload->ics, k, 1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    auto threaded = ReplayChecked(workload->db, workload->ics, k, 4);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    ExpectSameDatabase((*serial)->db(), (*threaded)->db(), "4 threads");
    EXPECT_EQ((*serial)->cumulative_distance(),
              (*threaded)->cumulative_distance());
    // Both sessions grew the same logical instance, epoch by epoch.
    const CsrSetCoverInstance& one = (*serial)->frozen_instance();
    const CsrSetCoverInstance& four = (*threaded)->frozen_instance();
    ASSERT_EQ(one.num_elements(), four.num_elements());
    ASSERT_EQ(one.num_sets(), four.num_sets());
    for (uint32_t s = 0; s < one.num_sets(); ++s) {
      ASSERT_EQ(one.weight(s), four.weight(s)) << "set " << s;
      ASSERT_TRUE(std::ranges::equal(one.elements_of(s), four.elements_of(s)))
          << "set " << s;
    }
  }
}

}  // namespace
}  // namespace dbrepair
