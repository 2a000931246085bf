#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

thread_local RequestTrace* t_current = nullptr;
// Spans the calling thread has open on t_current, innermost last.
thread_local std::vector<int> t_open;

}  // namespace

int RequestTrace::Open(Layer layer, std::int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.layer = layer;
  span.start_ns = start_ns;
  span.parent = t_open.empty() ? -1 : t_open.back();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void RequestTrace::Close(int index) {
  const std::int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
  auto it = std::find(t_open.rbegin(), t_open.rend(), index);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
}

void RequestTrace::AddFetches(std::uint64_t calls) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.fetches += calls;
}

RequestTrace* CurrentTrace() { return t_current; }

TraceScope::TraceScope(RequestTrace* trace) : previous_(t_current) {
  t_current = trace;
  t_open.clear();
}

TraceScope::~TraceScope() {
  t_current = previous_;
  t_open.clear();
}

ScopedSpan::ScopedSpan(Layer layer) : trace_(t_current) {
  if (trace_ != nullptr) index_ = trace_->Open(layer, NowNs());
}

void ScopedSpan::End() {
  if (trace_ != nullptr && index_ >= 0) trace_->Close(index_);
  index_ = -1;
}

void TimingSource::Count(std::uint64_t calls) {
  if (count_fetches_ && t_current != nullptr) t_current->AddFetches(calls);
}

ucqn::FetchResult TimingSource::Fetch(
    const std::string& relation, const ucqn::AccessPattern& pattern,
    const std::vector<std::optional<ucqn::Term>>& inputs) {
  Count(1);
  ScopedSpan span(layer_);
  return inner_->Fetch(relation, pattern, inputs);
}

std::vector<ucqn::FetchResult> TimingSource::FetchBatch(
    const std::string& relation, const ucqn::AccessPattern& pattern,
    const std::vector<std::vector<std::optional<ucqn::Term>>>& inputs) {
  Count(inputs.size());
  ScopedSpan span(layer_);
  return inner_->FetchBatch(relation, pattern, inputs);
}

ucqn::FetchFuture TimingSource::FetchBatchAsync(
    std::string relation, ucqn::AccessPattern pattern,
    std::vector<std::vector<std::optional<ucqn::Term>>> inputs) {
  Count(inputs.size());
  const std::int64_t issued = NowNs();
  RequestTrace* trace = t_current;
  // The issue half runs now; the span opens at Take (so calls made while
  // resolving nest under it) but starts at the issue time.
  auto inner = std::make_shared<ucqn::FetchFuture>(inner_->FetchBatchAsync(
      std::move(relation), std::move(pattern), std::move(inputs)));
  const Layer layer = layer_;
  return ucqn::FetchFuture::Deferred([inner, trace, issued, layer]() {
    const int index =
        trace != nullptr && trace == t_current ? trace->Open(layer, issued)
                                               : -1;
    std::vector<ucqn::FetchResult> results = inner->Take();
    if (index >= 0) trace->Close(index);
    return results;
  });
}

Attribution Attribute(const RequestTrace& trace) {
  Attribution out;
  const std::vector<Span>& spans = trace.spans();
  if (spans.empty()) return out;
  out.total_ns = spans[0].end_ns - spans[0].start_ns;

  std::vector<int> depth(spans.size(), 0);
  // (time, opening?, span): closes sort before opens at the same instant.
  std::vector<std::tuple<std::int64_t, bool, int>> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent >= 0) {
      depth[i] = depth[static_cast<std::size_t>(span.parent)] + 1;
    }
    if (span.end_ns <= span.start_ns) continue;  // covers no instant
    out.inclusive_ns[static_cast<int>(span.layer)] +=
        span.end_ns - span.start_ns;
    events.emplace_back(span.start_ns, true, static_cast<int>(i));
    events.emplace_back(span.end_ns, false, static_cast<int>(i));
  }
  std::sort(events.begin(), events.end());

  // Sweep: each instant goes to the innermost open span (deepest, then
  // latest started), so self times partition the root's interval.
  std::set<std::tuple<int, std::int64_t, int>> open;
  std::int64_t previous = spans[0].start_ns;
  for (const auto& [time, opening, index] : events) {
    if (!open.empty() && time > previous) {
      const int innermost = std::get<2>(*open.rbegin());
      out.self_ns[static_cast<int>(
          spans[static_cast<std::size_t>(innermost)].layer)] +=
          time - previous;
    }
    previous = time;
    const Span& span = spans[static_cast<std::size_t>(index)];
    const auto key = std::make_tuple(depth[static_cast<std::size_t>(index)],
                                     span.start_ns, index);
    if (opening) {
      open.insert(key);
    } else {
      open.erase(key);
    }
  }
  return out;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "bench.request";
    case Layer::kDecode: return "server.decode";
    case Layer::kAdmit: return "server.admit";
    case Layer::kParse: return "ast.parse";
    case Layer::kCovers: return "schema.covers";
    case Layer::kCompile: return "feasibility.compile";
    case Layer::kStatsLockWait: return "server.stats_lock_wait";
    case Layer::kStatsCopy: return "cost.stats_copy";
    case Layer::kEstimates: return "cost.estimates";
    case Layer::kStackSetup: return "runtime.stack_setup";
    case Layer::kAnswerStar: return "eval.answer_star";
    case Layer::kStack: return "runtime.stack";
    case Layer::kTransport: return "runtime.transport";
    case Layer::kBackend: return "runtime.backend";
    case Layer::kObserve: return "server.observe";
    case Layer::kEncode: return "server.encode";
    case Layer::kApplyDelta: return "eval.apply_delta";
    case Layer::kInvalidate: return "runtime.invalidate";
    case Layer::kMaintain: return "eval.maintain";
    case Layer::kCount: break;
  }
  return "?";
}

bool WriteSpans(const std::string& path,
                const std::vector<const RequestTrace*>& traces) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const RequestTrace* trace : traces) {
    const std::vector<Span>& spans = trace->spans();
    if (spans.empty()) continue;
    const std::int64_t base = spans[0].start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(out,
                   "{\"req\": %llu, \"span\": %zu, \"layer\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}\n",
                   static_cast<unsigned long long>(trace->id()), i,
                   LayerName(spans[i].layer),
                   static_cast<long long>(spans[i].start_ns - base),
                   static_cast<long long>(spans[i].end_ns - base),
                   spans[i].parent);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
