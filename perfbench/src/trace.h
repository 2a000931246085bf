#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans for the traced run. Every span is recorded from the benchmark's
// own files, around calls into the ucqn modules' public functions: the
// replica session (replica.h) opens one per layer call, and TimingSource
// wraps the Source objects of the runtime stack. Spans of one request
// share its id and are kept in memory; aggregation turns them into
// per-layer self times whose sum, plus the request span's own remainder
// ("unattributed"), equals the request's traced time exactly.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "eval/source.h"

namespace perfbench {

// One traced layer. kRequest is the root span of every request.
enum class Layer {
  kRequest,
  kDecode,         // server: ParseServiceRequest
  kAdmit,          // server: tenant quota + admission enter/leave
  kParse,          // ast: ParseUnionQuery
  kCovers,         // schema: Catalog::CoversQuery
  kCompile,        // feasibility: Compile
  kStatsLockWait,  // server: acquiring QueryDaemon::stats_mu()
  kStatsCopy,      // cost: StatsCatalog snapshot copy
  kEstimates,      // cost: CardinalityEstimates + AdaptiveCostModel
  kStackSetup,     // runtime: SourceStack construction
  kAnswerStar,     // eval: AnswerStar
  kStack,          // runtime: calls into the SourceStack top
  kTransport,      // runtime: calls into FaultInjectingSource
  kBackend,        // runtime: calls into DatabaseSource
  kObserve,        // server: StatsCatalog::Observe and totals merge
  kEncode,         // server: ServiceResponse::ToJsonLine
  kApplyDelta,     // eval: ApplyDelta
  kInvalidate,     // runtime: SharedCacheStore::InvalidateDelta
  kMaintain,       // eval: StandingQuery::ApplyDeltas
  kCount,
};

constexpr int kLayerCount = static_cast<int>(Layer::kCount);

struct Span {
  Layer layer = Layer::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the request's spans; -1 for the root
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Counters recorded at the same boundaries as the spans.
struct RequestCounts {
  std::uint64_t fetches = 0;         // call requests entering the stack top
  std::uint64_t physical_calls = 0;  // the session meter's calls
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flight_waits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
  std::uint64_t stats_rows = 0;
  std::uint64_t rows_out = 0;
  std::uint64_t morsels = 0;
  std::uint64_t antijoin_build_tuples = 0;
  std::uint64_t disjuncts = 0;
  std::uint64_t invalidated_entries = 0;
  std::uint64_t maintain_calls = 0;
};

// The spans and counters of one request. Thread-safe: a request's
// source calls may run on any thread that has it installed.
class RequestTrace {
 public:
  RequestTrace(std::uint64_t id, bool write) : id_(id), write_(write) {}

  // Opens a span; its parent is the innermost span the calling thread
  // has open. `start_ns` lets a deferred call (a future's Take) start its
  // span at issue time.
  int Open(Layer layer, std::int64_t start_ns);
  void Close(int index);

  // Counters are written by the thread serving the request; fetch counts
  // may also come from source calls on other threads, hence the lock.
  RequestCounts& counts() { return counts_; }
  void AddFetches(std::uint64_t calls);
  std::uint64_t id() const { return id_; }
  bool write() const { return write_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t id_;
  bool write_;
  std::mutex mu_;
  std::vector<Span> spans_;
  RequestCounts counts_;
};

// The request the calling thread is serving, or null outside a traced
// request (then spans and counts are dropped).
RequestTrace* CurrentTrace();

// Installs `trace` as the calling thread's request for its lifetime.
class TraceScope {
 public:
  explicit TraceScope(RequestTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  RequestTrace* previous_;
};

// A span over the enclosing scope, on the current request (if any).
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan() { End(); }
  void End();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RequestTrace* trace_;
  int index_ = -1;
};

// Times every call into `inner` as one `layer` span: Fetch, FetchBatch,
// and FetchBatchAsync from issue through Take. With `count_fetches` the
// wrapper also counts the call requests passing through it.
class TimingSource : public ucqn::Source {
 public:
  TimingSource(ucqn::Source* inner, Layer layer, bool count_fetches = false)
      : inner_(inner), layer_(layer), count_fetches_(count_fetches) {}

  ucqn::FetchResult Fetch(
      const std::string& relation, const ucqn::AccessPattern& pattern,
      const std::vector<std::optional<ucqn::Term>>& inputs) override;
  std::vector<ucqn::FetchResult> FetchBatch(
      const std::string& relation, const ucqn::AccessPattern& pattern,
      const std::vector<std::vector<std::optional<ucqn::Term>>>& inputs)
      override;
  ucqn::FetchFuture FetchBatchAsync(
      std::string relation, ucqn::AccessPattern pattern,
      std::vector<std::vector<std::optional<ucqn::Term>>> inputs) override;

 private:
  void Count(std::uint64_t calls);

  ucqn::Source* inner_;
  Layer layer_;
  bool count_fetches_;
};

// Per-request attribution of one finished request: each layer's self
// time (time the layer was the innermost open span) and inclusive time
// (sum of its spans' durations). self[kRequest] is the unattributed
// remainder; the self times sum to total_ns.
struct Attribution {
  std::int64_t total_ns = 0;
  std::int64_t self_ns[kLayerCount] = {};
  std::int64_t inclusive_ns[kLayerCount] = {};
};

Attribution Attribute(const RequestTrace& trace);

const char* LayerName(Layer layer);

// Writes the spans of `traces` as JSON lines ({"req", "span", "layer",
// "start_ns", "end_ns", "parent"}), relative to each request's start.
bool WriteSpans(const std::string& path,
                const std::vector<const RequestTrace*>& traces);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
