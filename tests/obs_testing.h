#ifndef DBREPAIR_TESTS_OBS_TESTING_H_
#define DBREPAIR_TESTS_OBS_TESTING_H_

// Span lookups on a run snapshot's "trace" trees, shared by the obs tests.

#include <string_view>

#include "obs/json.h"

namespace dbrepair::obs {

/// The span at '/'-separated `path` ("repair/build/fixes") under `node`, or
/// nullptr.
inline const Json* FindSpanIn(const Json& node, std::string_view path) {
  const size_t slash = path.find('/');
  if (node.Find("name")->AsString() != path.substr(0, slash)) return nullptr;
  if (slash == std::string_view::npos) return &node;
  const Json* children = node.Find("children");
  if (children == nullptr) return nullptr;
  for (const Json& child : children->AsArray()) {
    if (const Json* found = FindSpanIn(child, path.substr(slash + 1))) {
      return found;
    }
  }
  return nullptr;
}

/// The span at `path` in the first tree of `snapshot`'s "trace" that has
/// it (a BuildRunSnapshot document), or nullptr.
inline const Json* FindSpan(const Json& snapshot, std::string_view path) {
  for (const Json& root : snapshot.Find("trace")->AsArray()) {
    if (const Json* found = FindSpanIn(root, path)) return found;
  }
  return nullptr;
}

/// The "duration_s" of a span found by FindSpan.
inline double SpanSeconds(const Json* span) {
  return span->Find("duration_s")->AsDouble();
}

/// True when the snapshot marks the span as still open.
inline bool SpanOpen(const Json* span) {
  const Json* open = span->Find("open");
  return open != nullptr && open->AsBool();
}

/// The snapshot's root span trees.
inline const Json::Array& SpanRoots(const Json& snapshot) {
  return snapshot.Find("trace")->AsArray();
}

}  // namespace dbrepair::obs

#endif  // DBREPAIR_TESTS_OBS_TESTING_H_
