#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/context.h"
#include "obs_testing.h"

namespace dbrepair::obs {
namespace {

TEST(TracerTest, SpansNestInOpenOrder) {
  ObsContext context;
  {
    Span repair(&context.events, "repair");
    { Span bind(&context.events, "bind"); }
    {
      Span build(&context.events, "build");
      { Span violations(&context.events, "violations"); }
      { Span fixes(&context.events, "fixes"); }
    }
    { Span solve(&context.events, "solve"); }
  }
  const Json snapshot = BuildRunSnapshot(context);
  const Json::Array& roots = SpanRoots(snapshot);
  ASSERT_EQ(roots.size(), 1u);
  const Json& root = roots[0];
  EXPECT_EQ(root.Find("name")->AsString(), "repair");
  EXPECT_FALSE(SpanOpen(&root));
  const Json::Array& children = root.Find("children")->AsArray();
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0].Find("name")->AsString(), "bind");
  EXPECT_EQ(children[1].Find("name")->AsString(), "build");
  EXPECT_EQ(children[2].Find("name")->AsString(), "solve");
  const Json::Array& build = children[1].Find("children")->AsArray();
  ASSERT_EQ(build.size(), 2u);
  EXPECT_EQ(build[0].Find("name")->AsString(), "violations");
  EXPECT_EQ(build[1].Find("name")->AsString(), "fixes");
}

TEST(TracerTest, FinishReturnsDurationAndIsIdempotent) {
  ObsContext context;
  Span span(&context.events, "work");
  const double first = span.Finish();
  const double second = span.Finish();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(first, second);
  const Json snapshot = BuildRunSnapshot(context);
  const Json* node = FindSpan(snapshot, "work");
  ASSERT_NE(node, nullptr);
  EXPECT_DOUBLE_EQ(SpanSeconds(node), first);
}

TEST(TracerTest, ChildDurationsBoundedByParent) {
  ObsContext context;
  {
    Span outer(&context.events, "outer");
    { Span inner(&context.events, "inner"); }
  }
  const Json snapshot = BuildRunSnapshot(context);
  const Json* outer = FindSpan(snapshot, "outer");
  const Json* inner = FindSpan(snapshot, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->Find("start_s")->AsDouble(),
            outer->Find("start_s")->AsDouble());
  EXPECT_LE(SpanSeconds(inner), SpanSeconds(outer) + 1e-9);
}

TEST(TracerTest, CloseSpanPopsAbandonedChildren) {
  // Finishing a span out of order (an explicit Finish() on the parent while
  // a child is still alive) must finish any deeper spans still open.
  ObsContext context;
  Span outer(&context.events, "outer");
  Span leaked(&context.events, "leaked");
  outer.Finish();
  const Json closed = BuildRunSnapshot(context);
  const Json* node = FindSpan(closed, "outer/leaked");
  ASSERT_NE(node, nullptr);
  EXPECT_FALSE(SpanOpen(node));
  // A fresh span after the close is a new root, not a child of "outer".
  { Span next(&context.events, "next"); }
  const Json snapshot = BuildRunSnapshot(context);
  EXPECT_EQ(SpanRoots(snapshot).size(), 2u);
  EXPECT_NE(FindSpan(snapshot, "next"), nullptr);
}

TEST(TracerTest, KeepsOnlyTheNewestRootsUpToTheCap) {
  ObsContext context;
  constexpr size_t kRoots = 1000;
  for (size_t i = 0; i < kRoots; ++i) {
    Span root(&context.events, std::to_string(i));
    { Span child(&context.events, "child"); }
  }
  const Json snapshot = BuildRunSnapshot(context);
  const Json::Array& roots = SpanRoots(snapshot);
  ASSERT_EQ(roots.size(), EventLane::kMaxRoots);
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(roots[i].Find("name")->AsString(),
              std::to_string(kRoots - EventLane::kMaxRoots + i));
    EXPECT_FALSE(SpanOpen(&roots[i]));
  }
  EXPECT_EQ(FindSpan(snapshot, "0"), nullptr);
  EXPECT_NE(FindSpan(snapshot, "999/child"), nullptr);
  // The lane itself holds nothing older than the first kept root: four
  // events (two begins, two ends) per root.
  ASSERT_EQ(context.events.num_lanes(), 1u);
  const std::vector<TraceEvent> events = context.events.lanes()[0]->Events();
  ASSERT_EQ(events.size(), 4 * EventLane::kMaxRoots);
  EXPECT_EQ(events.front().kind, EventKind::kSpanBegin);
  EXPECT_EQ(events.front().name,
            std::to_string(kRoots - EventLane::kMaxRoots));
}

TEST(TracerTest, OpenRootIsNeverEvicted) {
  ObsContext context;
  for (size_t i = 0; i < EventLane::kMaxRoots; ++i) {
    Span root(&context.events, std::to_string(i));
  }
  {
    Span live(&context.events, "live");
    // Spans opened under an open root are its children: however many there
    // are, they open no root and evict nothing.
    for (size_t i = 0; i < 2 * EventLane::kMaxRoots; ++i) {
      Span child(&context.events, "child");
    }
    const Json snapshot = BuildRunSnapshot(context);
    const Json::Array& roots = SpanRoots(snapshot);
    ASSERT_EQ(roots.size(), EventLane::kMaxRoots);
    EXPECT_EQ(roots.back().Find("name")->AsString(), "live");
    EXPECT_TRUE(SpanOpen(&roots.back()));
    EXPECT_EQ(roots.back().Find("children")->AsArray().size(),
              2 * EventLane::kMaxRoots);
  }
  // Once closed, "live" is the newest completed root and outlasts the next
  // opening, which evicts the oldest.
  { Span next(&context.events, "next"); }
  const Json snapshot = BuildRunSnapshot(context);
  const Json::Array& roots = SpanRoots(snapshot);
  ASSERT_EQ(roots.size(), EventLane::kMaxRoots);
  EXPECT_EQ(roots[roots.size() - 2].Find("name")->AsString(), "live");
  EXPECT_EQ(roots.back().Find("name")->AsString(), "next");
  EXPECT_EQ(FindSpan(snapshot, "0"), nullptr);
  EXPECT_EQ(FindSpan(snapshot, "1"), nullptr);
  EXPECT_NE(FindSpan(snapshot, "2"), nullptr);
}

TEST(TracerTest, EvictedTreesStayValidForTheirHolders) {
  // A snapshot is a copy: one taken before its trees are evicted from the
  // lane stays whole after the eviction.
  ObsContext context;
  Span outer(&context.events, "outer");
  Span inner(&context.events, "inner");
  // Closing the parent first closes "inner" too; then enough roots open to
  // evict "outer"'s tree from the lane.
  const double outer_seconds = outer.Finish();
  const Json held = BuildRunSnapshot(context);
  for (size_t i = 0; i < 2 * EventLane::kMaxRoots; ++i) {
    Span root(&context.events, "later");
  }
  EXPECT_EQ(FindSpan(BuildRunSnapshot(context), "outer"), nullptr);
  const Json* node = FindSpan(held, "outer/inner");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->Find("name")->AsString(), "inner");
  EXPECT_FALSE(SpanOpen(node));
  EXPECT_LE(SpanSeconds(node), outer_seconds + 1e-9);
  // Finishing the already-closed span reports its own stamps and records
  // nothing: a root opened meanwhile stays open.
  const double inner_seconds = SpanSeconds(node);
  Span open_root(&context.events, "open-root");
  EXPECT_GE(inner.Finish(), inner_seconds);
  const Json after = BuildRunSnapshot(context);
  EXPECT_TRUE(SpanOpen(&SpanRoots(after).back()));
}

TEST(TracerTest, FindSpanByPath) {
  ObsContext context;
  {
    Span a(&context.events, "a");
    Span b(&context.events, "b");
    Span c(&context.events, "c");
    c.Finish();
    b.Finish();
    a.Finish();
  }
  const Json snapshot = BuildRunSnapshot(context);
  EXPECT_NE(FindSpan(snapshot, "a"), nullptr);
  EXPECT_NE(FindSpan(snapshot, "a/b"), nullptr);
  EXPECT_NE(FindSpan(snapshot, "a/b/c"), nullptr);
  EXPECT_EQ(FindSpan(snapshot, "a/c"), nullptr);
  EXPECT_EQ(FindSpan(snapshot, "nope"), nullptr);
}

TEST(TracerTest, ClearDropsEverything) {
  ObsContext context;
  { Span s(&context.events, "s"); }
  EXPECT_EQ(SpanRoots(BuildRunSnapshot(context)).size(), 1u);
  context.events.Clear();
  const Json snapshot = BuildRunSnapshot(context);
  EXPECT_TRUE(SpanRoots(snapshot).empty());
  EXPECT_EQ(FindSpan(snapshot, "s"), nullptr);
}

TEST(TracerTest, FormatSpanTreeListsEveryNode) {
  ObsContext context;
  {
    Span repair(&context.events, "repair");
    { Span build(&context.events, "build"); }
  }
  const std::string text = FormatSpanTrees(context.events);
  EXPECT_NE(text.find("repair"), std::string::npos) << text;
  EXPECT_NE(text.find("build"), std::string::npos) << text;
  EXPECT_NE(text.find("ms"), std::string::npos) << text;
}

TEST(TracerTest, SpanTreeToJsonShape) {
  ObsContext context;
  {
    Span repair(&context.events, "repair");
    { Span solve(&context.events, "solve"); }
  }
  const Json snapshot = BuildRunSnapshot(context);
  const Json& json = SpanRoots(snapshot)[0];
  EXPECT_EQ(json.Find("name")->AsString(), "repair");
  EXPECT_TRUE(json.Find("duration_s")->is_double());
  const Json* children = json.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->AsArray().size(), 1u);
  EXPECT_EQ(children->AsArray()[0].Find("name")->AsString(), "solve");
}

TEST(TracerTest, OpenSpansReportElapsedInJsonAndText) {
  ObsContext context;
  Span repair(&context.events, "repair");
  { Span solve(&context.events, "solve"); }
  // "repair" is still open: a mid-run snapshot must say so and report
  // elapsed-so-far rather than duration 0.
  for (volatile int i = 0; i < 100000; ++i) {  // let some time pass
  }
  const Json snapshot = BuildRunSnapshot(context);
  const double now = context.clock.SecondsSinceEpoch();
  const Json& json = SpanRoots(snapshot)[0];
  const Json* open = json.Find("open");
  ASSERT_NE(open, nullptr);
  EXPECT_TRUE(open->AsBool());
  EXPECT_GT(json.Find("duration_s")->AsDouble(), 0.0);
  EXPECT_GE(now, json.Find("duration_s")->AsDouble());
  // The closed child reports its real duration and no "open" key.
  const Json& child = json.Find("children")->AsArray()[0];
  EXPECT_EQ(child.Find("open"), nullptr);

  const std::string text = FormatSpanTrees(context.events);
  EXPECT_NE(text.find("(open)"), std::string::npos) << text;
}

TEST(ScopedObsTest, InstallsAndRestoresCurrentContext) {
  ObsContext& base = CurrentObs();
  ObsContext local;
  {
    ScopedObs scoped(&local);
    EXPECT_EQ(&CurrentObs(), &local);
    // The default-collector Span constructor writes into the installed
    // context.
    { Span s("scoped-span"); }
    EXPECT_NE(FindSpan(BuildRunSnapshot(local), "scoped-span"), nullptr);
    ObsContext nested;
    {
      ScopedObs inner(&nested);
      EXPECT_EQ(&CurrentObs(), &nested);
    }
    EXPECT_EQ(&CurrentObs(), &local);
  }
  EXPECT_EQ(&CurrentObs(), &base);
  EXPECT_EQ(FindSpan(BuildRunSnapshot(base), "scoped-span"), nullptr);
}

}  // namespace
}  // namespace dbrepair::obs
