#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/context.h"

namespace dbrepair::obs {
namespace {

TEST(TracerTest, SpansNestInOpenOrder) {
  Tracer tracer;
  {
    Span repair(&tracer, "repair");
    { Span bind(&tracer, "bind"); }
    {
      Span build(&tracer, "build");
      { Span violations(&tracer, "violations"); }
      { Span fixes(&tracer, "fixes"); }
    }
    { Span solve(&tracer, "solve"); }
  }
  const auto roots = tracer.roots();
  ASSERT_EQ(roots.size(), 1u);
  const SpanNode& root = *roots[0];
  EXPECT_EQ(root.name, "repair");
  EXPECT_FALSE(root.open);
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0]->name, "bind");
  EXPECT_EQ(root.children[1]->name, "build");
  EXPECT_EQ(root.children[2]->name, "solve");
  ASSERT_EQ(root.children[1]->children.size(), 2u);
  EXPECT_EQ(root.children[1]->children[0]->name, "violations");
  EXPECT_EQ(root.children[1]->children[1]->name, "fixes");
}

TEST(TracerTest, FinishReturnsDurationAndIsIdempotent) {
  Tracer tracer;
  Span span(&tracer, "work");
  const double first = span.Finish();
  const double second = span.Finish();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(first, second);
  const auto node = tracer.FindSpan("work");
  ASSERT_NE(node, nullptr);
  EXPECT_DOUBLE_EQ(node->duration_seconds, first);
}

TEST(TracerTest, ChildDurationsBoundedByParent) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer");
    { Span inner(&tracer, "inner"); }
  }
  const auto outer = tracer.FindSpan("outer");
  const auto inner = tracer.FindSpan("outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->start_seconds, outer->start_seconds);
  EXPECT_LE(inner->duration_seconds, outer->duration_seconds + 1e-9);
}

TEST(TracerTest, CloseSpanPopsAbandonedChildren) {
  // An early error return destroys Span objects out of strict order; closing
  // a parent must finish any deeper spans still open.
  Tracer tracer;
  const auto outer = tracer.OpenSpan("outer");
  tracer.OpenSpan("leaked");
  tracer.CloseSpan(outer.get());
  const auto leaked = tracer.FindSpan("outer/leaked");
  ASSERT_NE(leaked, nullptr);
  EXPECT_FALSE(leaked->open);
  // A fresh span after the close is a new root, not a child of "outer".
  { Span next(&tracer, "next"); }
  EXPECT_EQ(tracer.roots().size(), 2u);
  EXPECT_NE(tracer.FindSpan("next"), nullptr);
}

TEST(TracerTest, KeepsOnlyTheNewestRootsUpToTheCap) {
  Tracer tracer;
  constexpr size_t kRoots = 1000;
  for (size_t i = 0; i < kRoots; ++i) {
    Span root(&tracer, std::to_string(i));
    { Span child(&tracer, "child"); }
  }
  const auto roots = tracer.roots();
  ASSERT_EQ(roots.size(), Tracer::kMaxRoots);
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(roots[i]->name, std::to_string(kRoots - Tracer::kMaxRoots + i));
    EXPECT_FALSE(roots[i]->open);
  }
  EXPECT_EQ(tracer.FindSpan("0"), nullptr);
  EXPECT_NE(tracer.FindSpan("999/child"), nullptr);
}

TEST(TracerTest, OpenRootIsNeverEvicted) {
  Tracer tracer;
  for (size_t i = 0; i < Tracer::kMaxRoots; ++i) {
    Span root(&tracer, std::to_string(i));
  }
  {
    Span live(&tracer, "live");
    // Spans opened under an open root are its children: however many there
    // are, they open no root and evict nothing.
    for (size_t i = 0; i < 2 * Tracer::kMaxRoots; ++i) {
      Span child(&tracer, "child");
    }
    const auto roots = tracer.roots();
    ASSERT_EQ(roots.size(), Tracer::kMaxRoots);
    EXPECT_EQ(roots.back()->name, "live");
    EXPECT_TRUE(roots.back()->open);
    EXPECT_EQ(roots.back()->children.size(), 2 * Tracer::kMaxRoots);
  }
  // Once closed, "live" is the newest completed root and outlasts the next
  // opening, which evicts the oldest.
  { Span next(&tracer, "next"); }
  const auto roots = tracer.roots();
  ASSERT_EQ(roots.size(), Tracer::kMaxRoots);
  EXPECT_EQ(roots[roots.size() - 2]->name, "live");
  EXPECT_EQ(roots.back()->name, "next");
  EXPECT_EQ(tracer.FindSpan("0"), nullptr);
  EXPECT_EQ(tracer.FindSpan("1"), nullptr);
  EXPECT_NE(tracer.FindSpan("2"), nullptr);
}

TEST(TracerTest, EvictedTreesStayValidForTheirHolders) {
  Tracer tracer;
  Span outer(&tracer, "outer");
  Span inner(&tracer, "inner");
  auto held = tracer.FindSpan("outer/inner");
  ASSERT_NE(held, nullptr);
  // Closing the parent first closes "inner" too; then enough roots open to
  // evict "outer"'s tree while a reader and the Span still point into it.
  const double outer_seconds = outer.Finish();
  for (size_t i = 0; i < 2 * Tracer::kMaxRoots; ++i) {
    Span root(&tracer, "later");
  }
  EXPECT_EQ(tracer.FindSpan("outer"), nullptr);
  EXPECT_EQ(held->name, "inner");
  EXPECT_FALSE(held->open);
  EXPECT_LE(held->duration_seconds, outer_seconds + 1e-9);
  // The Span alone keeps the tree once the reader lets go: finishing the
  // already-closed span reports its recorded duration and leaves a root
  // opened meanwhile untouched.
  const double inner_seconds = held->duration_seconds;
  held.reset();
  Span open_root(&tracer, "open-root");
  EXPECT_DOUBLE_EQ(inner.Finish(), inner_seconds);
  EXPECT_TRUE(tracer.roots().back()->open);
}

TEST(TracerTest, FindSpanByPath) {
  Tracer tracer;
  {
    Span a(&tracer, "a");
    Span b(&tracer, "b");
    Span c(&tracer, "c");
    c.Finish();
    b.Finish();
    a.Finish();
  }
  EXPECT_NE(tracer.FindSpan("a"), nullptr);
  EXPECT_NE(tracer.FindSpan("a/b"), nullptr);
  EXPECT_NE(tracer.FindSpan("a/b/c"), nullptr);
  EXPECT_EQ(tracer.FindSpan("a/c"), nullptr);
  EXPECT_EQ(tracer.FindSpan("nope"), nullptr);
}

TEST(TracerTest, ClearDropsEverything) {
  Tracer tracer;
  { Span s(&tracer, "s"); }
  EXPECT_EQ(tracer.roots().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.roots().empty());
  EXPECT_EQ(tracer.FindSpan("s"), nullptr);
}

TEST(TracerTest, FormatSpanTreeListsEveryNode) {
  Tracer tracer;
  {
    Span repair(&tracer, "repair");
    { Span build(&tracer, "build"); }
  }
  const std::string text = FormatSpanTrees(tracer);
  EXPECT_NE(text.find("repair"), std::string::npos) << text;
  EXPECT_NE(text.find("build"), std::string::npos) << text;
  EXPECT_NE(text.find("ms"), std::string::npos) << text;
}

TEST(TracerTest, SpanTreeToJsonShape) {
  Tracer tracer;
  {
    Span repair(&tracer, "repair");
    { Span solve(&tracer, "solve"); }
  }
  const Json json = SpanTreeToJson(*tracer.roots()[0]);
  EXPECT_EQ(json.Find("name")->AsString(), "repair");
  EXPECT_TRUE(json.Find("duration_s")->is_double());
  const Json* children = json.Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->AsArray().size(), 1u);
  EXPECT_EQ(children->AsArray()[0].Find("name")->AsString(), "solve");
}

TEST(TracerTest, OpenSpansReportElapsedInJsonAndText) {
  Tracer tracer;
  const auto repair = tracer.OpenSpan("repair");
  const auto solve = tracer.OpenSpan("solve");
  tracer.CloseSpan(solve.get());
  // "repair" is still open: a mid-run snapshot must say so and report
  // elapsed-so-far rather than duration 0.
  for (volatile int i = 0; i < 100000; ++i) {  // let some time pass
  }
  const double now = tracer.clock().SecondsSinceEpoch();
  const Json json = SpanTreeToJson(*tracer.roots()[0], now);
  const Json* open = json.Find("open");
  ASSERT_NE(open, nullptr);
  EXPECT_TRUE(open->AsBool());
  EXPECT_GT(json.Find("duration_s")->AsDouble(), 0.0);
  EXPECT_GE(now, json.Find("duration_s")->AsDouble());
  // The closed child reports its real duration and no "open" key.
  const Json& child = json.Find("children")->AsArray()[0];
  EXPECT_EQ(child.Find("open"), nullptr);

  const std::string text = FormatSpanTree(*tracer.roots()[0], now);
  EXPECT_NE(text.find("(open)"), std::string::npos) << text;

  // Without a reference time an open span's duration stays 0 (unknown).
  const Json unknown = SpanTreeToJson(*tracer.roots()[0]);
  EXPECT_DOUBLE_EQ(unknown.Find("duration_s")->AsDouble(), 0.0);
  tracer.CloseSpan(repair.get());
}

TEST(ScopedObsTest, InstallsAndRestoresCurrentContext) {
  ObsContext& base = CurrentObs();
  ObsContext local;
  {
    ScopedObs scoped(&local);
    EXPECT_EQ(&CurrentObs(), &local);
    // The default-tracer Span constructor writes into the installed context.
    { Span s("scoped-span"); }
    EXPECT_NE(local.tracer.FindSpan("scoped-span"), nullptr);
    ObsContext nested;
    {
      ScopedObs inner(&nested);
      EXPECT_EQ(&CurrentObs(), &nested);
    }
    EXPECT_EQ(&CurrentObs(), &local);
  }
  EXPECT_EQ(&CurrentObs(), &base);
  EXPECT_EQ(base.tracer.FindSpan("scoped-span"), nullptr);
}

}  // namespace
}  // namespace dbrepair::obs
