#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/context.h"

namespace dbrepair::obs {

std::shared_ptr<SpanNode> Tracer::OpenSpan(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto node = std::make_unique<SpanNode>();
  node->name = std::string(name);
  node->start_seconds = Now();
  SpanNode* raw = node.get();
  if (stack_.empty()) {
    // No span is open, so the oldest root is closed and may go.
    if (roots_.size() >= kMaxRoots) roots_.erase(roots_.begin());
    roots_.push_back(std::move(node));
  } else {
    stack_.back()->children.push_back(std::move(node));
  }
  stack_.push_back(raw);
  // The open root is the newest one: no root opens while a span is open.
  return std::shared_ptr<SpanNode>(roots_.back(), raw);
}

double Tracer::CloseSpan(SpanNode* node) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!node->open) return node->duration_seconds;
  const double now = Now();
  // Close any deeper spans left open (abandoned by early returns) so the
  // stack discipline survives error paths.
  while (!stack_.empty()) {
    SpanNode* top = stack_.back();
    stack_.pop_back();
    top->duration_seconds = now - top->start_seconds;
    top->open = false;
    if (top == node) break;
  }
  return node->duration_seconds;
}

std::vector<std::shared_ptr<const SpanNode>> Tracer::roots() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {roots_.begin(), roots_.end()};
}

namespace {

const SpanNode* FindSpanIn(const SpanNode& node, std::string_view path) {
  const size_t slash = path.find('/');
  const std::string_view head = path.substr(0, slash);
  if (node.name != head) return nullptr;
  if (slash == std::string_view::npos) return &node;
  const std::string_view rest = path.substr(slash + 1);
  for (const auto& child : node.children) {
    if (const SpanNode* found = FindSpanIn(*child, rest)) return found;
  }
  return nullptr;
}

}  // namespace

std::shared_ptr<const SpanNode> Tracer::FindSpan(
    std::string_view path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& root : roots_) {
    if (const SpanNode* found = FindSpanIn(*root, path)) {
      return std::shared_ptr<const SpanNode>(root, found);
    }
  }
  return nullptr;
}

void Tracer::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  roots_.clear();
  stack_.clear();
  clock_->Reset();
}

Span::Span(std::string_view name) : Span(&CurrentObs().tracer, name) {}

Span::Span(Tracer* tracer, std::string_view name)
    : tracer_(tracer), node_(tracer->OpenSpan(name)) {}

Span::~Span() { Finish(); }

double Span::Finish() {
  if (!finished_) {
    duration_seconds_ = tracer_->CloseSpan(node_.get());
    finished_ = true;
  }
  return duration_seconds_;
}

double EffectiveDurationSeconds(const SpanNode& node, double now_seconds) {
  if (!node.open) return node.duration_seconds;
  if (now_seconds < 0.0) return 0.0;
  return std::max(0.0, now_seconds - node.start_seconds);
}

namespace {

void FormatSpanInto(const SpanNode& node, const SpanNode* parent, int depth,
                    double now_seconds, std::string* out) {
  char buffer[160];
  const double ms = EffectiveDurationSeconds(node, now_seconds) * 1e3;
  const char* suffix = node.open ? " (open)" : "";
  const double parent_seconds =
      parent != nullptr ? EffectiveDurationSeconds(*parent, now_seconds) : 0.0;
  if (parent != nullptr && parent_seconds > 0.0) {
    const double share =
        100.0 * EffectiveDurationSeconds(node, now_seconds) / parent_seconds;
    std::snprintf(buffer, sizeof(buffer), "%*s%-12s %10.3f ms  %5.1f%%%s\n",
                  depth * 2, "", node.name.c_str(), ms, share, suffix);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%*s%-12s %10.3f ms%s\n", depth * 2,
                  "", node.name.c_str(), ms, suffix);
  }
  *out += buffer;
  for (const auto& child : node.children) {
    FormatSpanInto(*child, &node, depth + 1, now_seconds, out);
  }
}

}  // namespace

std::string FormatSpanTree(const SpanNode& root, double now_seconds) {
  std::string out;
  FormatSpanInto(root, nullptr, 0, now_seconds, &out);
  return out;
}

std::string FormatSpanTrees(const Tracer& tracer) {
  std::string out;
  const double now = tracer.clock().SecondsSinceEpoch();
  for (const auto& root : tracer.roots()) {
    out += FormatSpanTree(*root, now);
  }
  return out;
}

Json SpanTreeToJson(const SpanNode& root, double now_seconds) {
  Json out = Json::MakeObject();
  out.Set("name", Json(root.name));
  out.Set("start_s", Json(root.start_seconds));
  out.Set("duration_s", Json(EffectiveDurationSeconds(root, now_seconds)));
  if (root.open) out.Set("open", Json(true));
  if (!root.children.empty()) {
    Json children = Json::MakeArray();
    for (const auto& child : root.children) {
      children.Append(SpanTreeToJson(*child, now_seconds));
    }
    out.Set("children", std::move(children));
  }
  return out;
}

}  // namespace dbrepair::obs
