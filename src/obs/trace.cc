#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/context.h"

namespace dbrepair::obs {

Span::Span(std::string_view name) : Span(&CurrentObs().events, name) {}

Span::Span(EventCollector* events, std::string_view name)
    : clock_(&events->clock()),
      lane_(events->LaneForThisThread()),
      begin_seconds_(clock_->SecondsSinceEpoch()),
      begin_(lane_->BeginSpan(name, begin_seconds_)) {}

Span::~Span() { Finish(); }

double Span::Finish() {
  if (!finished_) {
    const double end_seconds = clock_->SecondsSinceEpoch();
    lane_->EndSpan(begin_, end_seconds);
    duration_seconds_ = end_seconds - begin_seconds_;
    finished_ = true;
  }
  return duration_seconds_;
}

std::vector<LaneInterval> SpanForest(const std::vector<LaneSnapshot>& lanes) {
  struct Root {
    const LaneSnapshot* lane;
    size_t first;  // the root's index in lane->spans
    size_t last;   // one past its last descendant
  };
  std::vector<Root> roots;
  for (const LaneSnapshot& lane : lanes) {
    for (size_t i = 0; i < lane.spans.size(); ++i) {
      if (lane.spans[i].depth == 0) roots.push_back({&lane, i, i});
      roots.back().last = i + 1;
    }
  }
  std::stable_sort(roots.begin(), roots.end(),
                   [](const Root& a, const Root& b) {
                     return a.lane->spans[a.first].begin_seconds <
                            b.lane->spans[b.first].begin_seconds;
                   });
  const size_t skip =
      roots.size() > EventLane::kMaxRoots ? roots.size() - EventLane::kMaxRoots
                                          : 0;
  std::vector<LaneInterval> forest;
  for (size_t r = skip; r < roots.size(); ++r) {
    const auto& spans = roots[r].lane->spans;
    forest.insert(forest.end(), spans.begin() + roots[r].first,
                  spans.begin() + roots[r].last);
  }
  return forest;
}

std::string FormatSpanTrees(const EventCollector& events) {
  const double now = events.clock().SecondsSinceEpoch();
  std::string out;
  std::vector<double> ancestors;  // durations of the enclosing spans
  for (const LaneInterval& span : SpanForest(SnapshotLanes(events, now))) {
    ancestors.resize(span.depth);
    const double seconds = span.end_seconds - span.begin_seconds;
    const int indent = static_cast<int>(span.depth) * 2;
    const char* suffix = span.open ? " (open)" : "";
    char buffer[160];
    if (!ancestors.empty() && ancestors.back() > 0.0) {
      std::snprintf(buffer, sizeof(buffer), "%*s%-12s %10.3f ms  %5.1f%%%s\n",
                    indent, "", span.name.c_str(), seconds * 1e3,
                    100.0 * seconds / ancestors.back(), suffix);
    } else {
      std::snprintf(buffer, sizeof(buffer), "%*s%-12s %10.3f ms%s\n", indent,
                    "", span.name.c_str(), seconds * 1e3, suffix);
    }
    out += buffer;
    ancestors.push_back(seconds);
  }
  return out;
}

}  // namespace dbrepair::obs
