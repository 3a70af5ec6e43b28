// Tests for the conflict-component index (union-find over the element->set
// links) and its deterministic dense partition, including the session epoch
// path: appends that merge components, checked against a from-scratch
// rebuild of the index.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "gen/client_buy.h"
#include "repair/api.h"
#include "repair/setcover/components.h"
#include "repair/setcover/csr_instance.h"

namespace dbrepair {
namespace {

// ---- ComponentIndex ----

TEST(ComponentIndexTest, BuildLabelsIndependentBlocks) {
  SetCoverInstance instance;
  instance.num_elements = 6;
  instance.sets = {{0, 1}, {1, 2}, {3}, {4, 5}};
  instance.weights = {1.0, 1.0, 1.0, 1.0};

  const ComponentIndex index = ComponentIndex::Build(instance);
  EXPECT_EQ(index.num_components(), 3u);
  EXPECT_EQ(index.num_sets(), 4u);
  EXPECT_EQ(index.num_elements(), 6u);
  // Sets 0 and 1 share element 1; the others stand alone.
  EXPECT_EQ(index.Find(0), index.Find(1));
  EXPECT_NE(index.Find(0), index.Find(2));
  EXPECT_NE(index.Find(2), index.Find(3));

  const ComponentPartition part = index.Partition();
  ASSERT_EQ(part.num_components(), 3u);
  // Dense ids in ascending smallest-element order.
  EXPECT_EQ(part.elements[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(part.elements[1], (std::vector<uint32_t>{3}));
  EXPECT_EQ(part.elements[2], (std::vector<uint32_t>{4, 5}));
  EXPECT_EQ(part.sets[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(part.sets[1], (std::vector<uint32_t>{2}));
  EXPECT_EQ(part.sets[2], (std::vector<uint32_t>{3}));
  EXPECT_EQ(part.elem_component,
            (std::vector<uint32_t>{0, 0, 0, 1, 2, 2}));
  EXPECT_EQ(part.elem_local, (std::vector<uint32_t>{0, 1, 2, 0, 0, 1}));
  EXPECT_EQ(part.set_local, (std::vector<uint32_t>{0, 1, 0, 0}));
}

TEST(ComponentIndexTest, AddAndExtendReportMerges) {
  SetCoverInstance instance;
  instance.num_elements = 4;
  instance.sets = {{0}, {1}, {2}, {3}};
  instance.weights = {1.0, 1.0, 1.0, 1.0};
  ComponentIndex index = ComponentIndex::Build(instance);
  EXPECT_EQ(index.num_components(), 4u);

  // A new set spanning elements 0 and 1 unions its own fresh component with
  // each of theirs: two union operations, net component count 4 -> 3.
  EXPECT_EQ(index.AddSet(std::vector<uint32_t>{0, 1}), 2u);
  EXPECT_EQ(index.num_components(), 3u);
  // Extending it across 2 merges a third in.
  EXPECT_EQ(index.ExtendSet(4, std::vector<uint32_t>{2}), 1u);
  EXPECT_EQ(index.num_components(), 2u);
  // Re-touching already-joined elements merges nothing.
  EXPECT_EQ(index.ExtendSet(4, std::vector<uint32_t>{0, 2}), 0u);
  EXPECT_EQ(index.num_components(), 2u);

  EXPECT_EQ(index.CountDistinctComponents(std::vector<uint32_t>{0, 1, 2}),
            1u);
  EXPECT_EQ(index.CountDistinctComponents(std::vector<uint32_t>{0, 3}), 2u);
}

TEST(ComponentIndexTest, EmptySetsAndUncoveredElements) {
  SetCoverInstance instance;
  instance.num_elements = 2;
  instance.sets = {{0}, {}};  // element 1 uncovered, set 1 empty
  instance.weights = {1.0, 1.0};
  const ComponentIndex index = ComponentIndex::Build(instance);
  // Only the attached component counts; the uncovered element is transient
  // mid-patch state and not a component until a set covers it.
  EXPECT_EQ(index.num_components(), 1u);

  const ComponentPartition part = index.Partition();
  // The partition *does* materialise the uncovered element as a singleton
  // with no sets.
  ASSERT_EQ(part.num_components(), 2u);
  EXPECT_EQ(part.sets[1].size(), 0u);
  EXPECT_EQ(part.elements[1], (std::vector<uint32_t>{1}));
  EXPECT_EQ(part.set_local[1], ComponentPartition::kNone);
}

// Mutation histories and from-scratch builds of the same instance must
// partition identically (the labels are a pure function of the instance).
TEST(ComponentIndexTest, IncrementalMatchesFromScratchRebuild) {
  Rng rng(77);
  SetCoverInstance instance;
  instance.num_elements = 40;
  ComponentIndex live;
  live.AddElements(40);
  std::vector<bool> covered(40, false);
  for (size_t s = 0; s < 30; ++s) {
    std::vector<uint32_t> elems;
    for (size_t i = 0, n = 1 + rng.Uniform(3); i < n; ++i) {
      elems.push_back(static_cast<uint32_t>(rng.Uniform(instance.num_elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.weights.push_back(1.0);
    instance.sets.push_back(elems);
    live.AddSet(elems);
  }
  for (uint32_t e = 0; e < instance.num_elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(1.0);
      live.AddSet(std::vector<uint32_t>{e});
    }
  }

  // Three epochs of appends: new elements, new sets, extensions of old sets.
  for (int epoch = 0; epoch < 3; ++epoch) {
    const uint32_t first_new = static_cast<uint32_t>(instance.num_elements);
    instance.num_elements += 10;
    live.AddElements(10);
    for (uint32_t e = first_new; e < instance.num_elements; ++e) {
      if (rng.Bernoulli(0.5) && !instance.sets.empty()) {
        const uint32_t victim =
            static_cast<uint32_t>(rng.Uniform(instance.sets.size()));
        instance.sets[victim].push_back(e);  // fresh ids extend ascending
        live.ExtendSet(victim, std::vector<uint32_t>{e});
      } else {
        const std::vector<uint32_t> elems{e};
        instance.sets.push_back(elems);
        instance.weights.push_back(1.0);
        live.AddSet(elems);
      }
    }
  }

  const ComponentIndex rebuilt = ComponentIndex::Build(instance);
  EXPECT_EQ(live.num_components(), rebuilt.num_components());
  const ComponentPartition a = live.Partition();
  const ComponentPartition b = rebuilt.Partition();
  EXPECT_EQ(a.sets, b.sets);
  EXPECT_EQ(a.elements, b.elements);
  EXPECT_EQ(a.set_local, b.set_local);
  EXPECT_EQ(a.elem_local, b.elem_local);
  EXPECT_EQ(a.elem_component, b.elem_component);
}

// ---- Session epochs: live index vs rebuild, merge telemetry ----

TEST(SessionComponentsTest, EpochAppendsTrackComponentsAndMerges) {
  ClientBuyOptions gen;
  gen.num_clients = 120;
  gen.inconsistency_ratio = 0.3;
  gen.seed = 5;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  // Stream every row through a session in 6 batches over an empty base.
  std::vector<BatchRow> rows;
  const Database& source = workload->db;
  size_t max_rows = 0;
  for (size_t r = 0; r < source.relation_count(); ++r) {
    max_rows = std::max(max_rows, source.table(r).size());
  }
  for (size_t i = 0; i < max_rows; ++i) {
    for (size_t r = 0; r < source.relation_count(); ++r) {
      if (i >= source.table(r).size()) continue;
      rows.push_back(BatchRow{source.schema().relations()[r].name(),
                              source.table(r).row(i).values()});
    }
  }
  const Database empty(source.schema_ptr());
  RepairOptions options;
  options.num_threads = 4;
  auto session = RepairSession::Open(empty, workload->ics, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const size_t chunk = (rows.size() + 5) / 6;
  for (size_t start = 0; start < rows.size(); start += chunk) {
    const size_t end = std::min(rows.size(), start + chunk);
    auto batch = (*session)->ApplyBatch(
        std::vector<BatchRow>(rows.begin() + start, rows.begin() + end));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    // The live index must agree with a from-scratch rebuild over the frozen
    // instance's sets — same count, identical partition.
    const CsrSetCoverInstance& frozen = (*session)->frozen_instance();
    SetCoverInstance copy;
    copy.num_elements = frozen.num_elements();
    for (uint32_t s = 0; s < frozen.num_sets(); ++s) {
      copy.sets.emplace_back(frozen.elements_of(s).begin(),
                             frozen.elements_of(s).end());
    }
    const ComponentIndex rebuilt = ComponentIndex::Build(copy);
    ASSERT_EQ((*session)->components().num_components(),
              rebuilt.num_components());
    const ComponentPartition live = (*session)->components().Partition();
    const ComponentPartition scratch = rebuilt.Partition();
    ASSERT_EQ(live.sets, scratch.sets);
    ASSERT_EQ(live.elements, scratch.elements);

    // Published count and telemetry mirror the live index.
    EXPECT_EQ((*session)->num_components(),
              (*session)->components().num_components());
    ASSERT_FALSE((*session)->telemetry().empty());
    const BatchTelemetry& last = (*session)->telemetry().back();
    EXPECT_EQ(last.components, (*session)->num_components());
    EXPECT_EQ(last.components_touched, batch->components_touched);
    EXPECT_EQ(last.components_merged, batch->components_merged);
    if (batch->num_new_violations > 0) {
      EXPECT_GE(batch->components_touched, 1u);
      EXPECT_LE(batch->components_touched, batch->num_new_violations);
    }
  }
  EXPECT_GT((*session)->num_components(), 0u);
}

}  // namespace
}  // namespace dbrepair
