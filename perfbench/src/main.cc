// ucqn_perfbench: replays one seeded workload through an in-process
// QueryDaemon via SubmitLine — the line-JSON path ucqnd serves — from a
// closed-loop client, checks every answer, and prints the
// metrics as one JSON line on stdout (a readable table goes to stderr).
//
//   ucqn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--corrupt-digest] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs untraced passes for the baseline, then the same stream through the
// traced replica (replica.h) and reports the per-layer metrics. --tiny
// shrinks every size (the self-test); --corrupt-digest perturbs the
// expected answer digest so the run must fail. Exit status: 0 when every
// check passed, 1 when one failed, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "eval/oracle.h"
#include "gen/workload_replay.h"
#include "replica.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 20;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool corrupt_digest = false;
  std::string spans_path;
};

// Set-ups per run, at least: setup_s is their median.
constexpr int kMinSetups = 11;
// Requests the continuity check replays both ways.
constexpr std::uint64_t kContinuityRequests = 2000;
// Samples a p99 needs: ten beyond it.
constexpr std::size_t kMinSamples = 1000;
// Traced requests whose spans are kept and written out.
constexpr std::size_t kKeptTraces = 1000;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile, ReplayWorkload's rule: sorted[min(n-1, p*n)].
template <typename T>
T Percentile(std::vector<T> values, double p) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[index];
}

template <typename T>
double Median(const std::vector<T>& values) {
  return static_cast<double>(Percentile(values, 0.5));
}

class Checks {
 public:
  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// A fresh daemon with its script, set up and warmed: generation, line
// rendering, daemon construction, standing registration, warm-up sweep.
struct Prepared {
  Script script;
  std::unique_ptr<Instance> instance;
  std::unique_ptr<Replica> replica;  // traced runs serve through this
  Submitter submit;
  std::vector<std::string> sweep_replies;
  std::vector<std::string> standing_replies;
};

std::unique_ptr<Prepared> SetUp(const WorkloadDef& def, bool traced) {
  auto prepared = std::make_unique<Prepared>();
  prepared->script = MakeScript(def);
  prepared->instance =
      std::make_unique<Instance>(def, prepared->script.spec, traced);
  if (traced) {
    prepared->replica = std::make_unique<Replica>(prepared->instance.get());
    Replica* replica = prepared->replica.get();
    prepared->submit = [replica](const std::string& line, std::uint64_t,
                                 bool) { return replica->SubmitLine(line); };
  } else {
    ucqn::QueryDaemon* daemon = &prepared->instance->daemon();
    prepared->submit = [daemon](const std::string& line, std::uint64_t,
                                bool) { return daemon->SubmitLine(line); };
  }
  for (const std::string& line : prepared->script.standing_lines) {
    prepared->standing_replies.push_back(prepared->submit(line, 0, false));
  }
  for (const std::string& line : prepared->script.sweep_lines) {
    prepared->sweep_replies.push_back(prepared->submit(line, 0, false));
  }
  return prepared;
}

std::optional<ucqn::ServiceResponse> ParseReply(const std::string& reply,
                                                Checks* checks,
                                                const std::string& what) {
  std::string error;
  std::optional<ucqn::ServiceResponse> response =
      ucqn::ParseServiceResponse(reply, &error);
  if (!response) {
    checks->Fail(what + ": unparsable response: " + error);
  } else if (response->status != ucqn::ServiceResponse::Status::kOk) {
    checks->Fail(what + ": " + response->error);
    return std::nullopt;
  }
  return response;
}

void CheckStanding(const Prepared& prepared, Checks* checks) {
  const Script& script = prepared.script;
  for (const std::string& reply : prepared.standing_replies) {
    ParseReply(reply, checks, "standing registration");
  }
  for (std::size_t i = 0; i < script.answers_lines.size(); ++i) {
    const auto standing = ParseReply(
        prepared.submit(script.answers_lines[i], 0, false), checks,
        "answers op for standing" + std::to_string(i));
    const auto fresh =
        ParseReply(prepared.submit(script.fresh_lines[i], 0, false), checks,
                   "fresh query of standing" + std::to_string(i));
    if (!standing || !fresh) continue;
    if (standing->under != fresh->under || standing->over != fresh->over) {
      checks->Fail("standing" + std::to_string(i) +
                   " read back differs from a fresh query's under/over");
    }
  }
}

// PLAN*'s sandwich on the request-0 instance: under ⊆ oracle, and every
// oracle tuple matches an over tuple (nulls in `over` are wildcards).
void CheckSandwich(const Prepared& prepared, Checks* checks) {
  const ucqn::WorkloadSpec& spec = prepared.script.spec;
  for (std::size_t i = 0; i < prepared.sweep_replies.size(); ++i) {
    const std::string what = "template " + std::to_string(i);
    const auto response = ParseReply(prepared.sweep_replies[i], checks, what);
    if (!response) continue;
    std::string error;
    const auto query = ucqn::ParseUnionQuery(spec.queries[i], &error);
    if (!query) {
      checks->Fail(what + ": " + error);
      continue;
    }
    const std::set<ucqn::Tuple> truth =
        ucqn::OracleEvaluate(*query, spec.database);
    for (const ucqn::Tuple& tuple : response->under) {
      if (truth.count(tuple) == 0) {
        checks->Fail(what + ": under tuple " + ucqn::TupleToString(tuple) +
                     " is not an answer");
      }
    }
    for (const ucqn::Tuple& tuple : truth) {
      const bool covered = std::any_of(
          response->over.begin(), response->over.end(),
          [&](const ucqn::Tuple& over) {
            if (over.size() != tuple.size()) return false;
            for (std::size_t j = 0; j < tuple.size(); ++j) {
              if (!over[j].IsNull() && over[j] != tuple[j]) return false;
            }
            return true;
          });
      if (!covered) {
        checks->Fail(what + ": answer " + ucqn::TupleToString(tuple) +
                     " missing from over");
      }
    }
  }
}

// Replaying through SubmitLine must not perturb the system: on a cold
// daemon, the first kContinuityRequests requests give ReplayWorkload's
// calls, sim percentiles and digest for the same spec and options.
void CheckContinuity(const WorkloadDef& def, Checks* checks) {
  WorkloadDef cold = def;
  cold.requests = std::min(def.requests, kContinuityRequests);
  cold.warmup_sweep = false;
  std::unique_ptr<Prepared> prepared = SetUp(cold, false);
  const PassResult ours =
      RunPass(prepared->script, prepared->submit, &prepared->instance->clock());
  ucqn::WorkloadReplayOptions options = def.replay;
  options.max_requests = cold.requests;
  const ucqn::WorkloadReplayReport theirs =
      ucqn::ReplayWorkload(prepared->script.spec, options);
  if (!theirs.ok) {
    checks->Fail("continuity: ReplayWorkload failed: " + theirs.error);
    return;
  }
  const std::uint64_t p50 = Percentile(ours.sim_us, 0.50);
  const std::uint64_t p99 = Percentile(ours.sim_us, 0.99);
  if (ours.ok != theirs.ok_count ||
      ours.physical_calls != theirs.physical_calls ||
      p50 != theirs.p50_micros || p99 != theirs.p99_micros ||
      ours.answers_hash != theirs.answers_hash) {
    checks->Fail(
        "continuity: SubmitLine gave ok " + std::to_string(ours.ok) +
        ", calls " + std::to_string(ours.physical_calls) + ", sim p50/p99 " +
        std::to_string(p50) + "/" + std::to_string(p99) + ", digest " +
        std::to_string(ours.answers_hash) + "; ReplayWorkload gave ok " +
        std::to_string(theirs.ok_count) + ", calls " +
        std::to_string(theirs.physical_calls) + ", sim p50/p99 " +
        std::to_string(theirs.p50_micros) + "/" +
        std::to_string(theirs.p99_micros) + ", digest " +
        std::to_string(theirs.answers_hash));
  }
}

// Accumulates passes of one kind (untraced or traced).
struct Passes {
  std::vector<double> latency_us;
  std::vector<double> write_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  std::uint64_t physical_calls = 0;
  // Per pass: requests per second and median latency. Interference on a
  // shared machine comes in bursts; the median over passes rejects them.
  std::vector<double> pass_rate;
  std::vector<double> pass_p50_us;
  std::vector<double> pass_p99_us;
  std::size_t smallest_pass = 0;
  int count = 0;

  // The median of per-pass p99s when every pass has ten samples beyond
  // its p99, else the p99 over all samples.
  double P99() const {
    return smallest_pass >= kMinSamples ? Median(pass_p99_us)
                                        : Percentile(latency_us, 0.99);
  }

  void Add(const PassResult& pass) {
    latency_us.insert(latency_us.end(), pass.latency_us.begin(),
                      pass.latency_us.end());
    write_us.insert(write_us.end(), pass.write_us.begin(),
                    pass.write_us.end());
    attempted += pass.attempted;
    failed += pass.failed;
    ok += pass.ok;
    physical_calls += pass.physical_calls;
    pass_rate.push_back(static_cast<double>(pass.latency_us.size()) /
                        pass.seconds);
    pass_p50_us.push_back(Percentile(pass.latency_us, 0.50));
    pass_p99_us.push_back(Percentile(pass.latency_us, 0.99));
    smallest_pass = count == 0 ? pass.latency_us.size()
                               : std::min(smallest_pass, pass.latency_us.size());
    ++count;
  }
};

// Checks one pass against the run's first: the same digest, simulated
// latencies and physical calls.
void CheckPass(const PassResult& pass, const PassResult& reference,
               std::uint64_t expected_hash, const std::string& what,
               Checks* checks) {
  if (!pass.error.empty()) checks->Fail(what + ": " + pass.error);
  if (pass.answers_hash != expected_hash) {
    checks->Fail(what + ": answers digest " +
                 std::to_string(pass.answers_hash) + ", expected " +
                 std::to_string(expected_hash));
  }
  if (pass.sim_us != reference.sim_us ||
      pass.physical_calls != reference.physical_calls) {
    checks->Fail(what + ": simulated latencies or physical calls differ "
                        "from the first pass");
  }
}

// Aggregates traced requests as they finish; keeps the first kKeptTraces
// whole for the span file.
class TraceCollector {
 public:
  void Finish(std::unique_ptr<RequestTrace> trace, Checks* checks) {
    const Attribution attribution = Attribute(*trace);
    std::int64_t sum = 0;
    for (std::int64_t self : attribution.self_ns) sum += self;
    std::lock_guard<std::mutex> lock(mu_);
    if (sum != attribution.total_ns && accounting_ok_) {
      accounting_ok_ = false;
      checks->Fail("trace accounting: self times sum to " +
                   std::to_string(sum) + " ns, request took " +
                   std::to_string(attribution.total_ns) + " ns");
    }
    std::vector<Attribution>& into = trace->write() ? writes_ : queries_;
    into.push_back(attribution);
    if (!trace->write()) {
      const RequestCounts& c = trace->counts();
      counts_.fetches += c.fetches;
      counts_.physical_calls += c.physical_calls;
      counts_.cache_hits += c.cache_hits;
      counts_.cache_misses += c.cache_misses;
      counts_.cache_flight_waits += c.cache_flight_waits;
      counts_.cache_evictions += c.cache_evictions;
      counts_.retries += c.retries;
      counts_.giveups += c.giveups;
      counts_.stats_rows += c.stats_rows;
      counts_.rows_out += c.rows_out;
      counts_.morsels += c.morsels;
      counts_.antijoin_build_tuples += c.antijoin_build_tuples;
      counts_.disjuncts += c.disjuncts;
    } else {
      counts_.invalidated_entries += trace->counts().invalidated_entries;
      counts_.maintain_calls += trace->counts().maintain_calls;
    }
    if (kept_.size() < kKeptTraces) kept_.push_back(std::move(trace));
  }

  const std::vector<Attribution>& queries() const { return queries_; }
  const std::vector<Attribution>& writes() const { return writes_; }
  const RequestCounts& counts() const { return counts_; }
  std::vector<const RequestTrace*> kept() const {
    std::vector<const RequestTrace*> out;
    for (const auto& trace : kept_) out.push_back(trace.get());
    return out;
  }

 private:
  std::mutex mu_;
  bool accounting_ok_ = true;
  std::vector<Attribution> queries_;
  std::vector<Attribution> writes_;
  RequestCounts counts_;
  std::vector<std::unique_ptr<RequestTrace>> kept_;
};

// One per-layer time metric: a layer's self or inclusive time, per query
// request or per delta op.
struct TimeMetric {
  const char* name;  // "<module>.<what>", "_ns" / "_total_ms" appended
  Layer layer;
  bool inclusive;
  bool write;
};

constexpr TimeMetric kTimeMetrics[] = {
    {"server.decode", Layer::kDecode, false, false},
    {"server.admit", Layer::kAdmit, false, false},
    {"server.stats_lock_wait", Layer::kStatsLockWait, false, false},
    {"server.observe", Layer::kObserve, false, false},
    {"server.encode", Layer::kEncode, false, false},
    {"ast.parse", Layer::kParse, false, false},
    {"schema.covers", Layer::kCovers, false, false},
    {"feasibility.compile", Layer::kCompile, false, false},
    {"cost.stats_copy", Layer::kStatsCopy, false, false},
    {"cost.estimates", Layer::kEstimates, false, false},
    {"runtime.stack_setup", Layer::kStackSetup, false, false},
    {"eval.answer_star", Layer::kAnswerStar, true, false},
    {"eval.self", Layer::kAnswerStar, false, false},
    {"runtime.stack_self", Layer::kStack, false, false},
    {"runtime.transport", Layer::kTransport, true, false},
    {"runtime.fault_inject", Layer::kTransport, false, false},
    {"runtime.backend", Layer::kBackend, true, false},
    {"bench.unattributed", Layer::kRequest, false, false},
    {"eval.apply_delta", Layer::kApplyDelta, false, true},
    {"runtime.invalidate", Layer::kInvalidate, false, true},
    {"eval.maintain", Layer::kMaintain, true, true},
};

std::vector<Metric> LayerMetrics(const TraceCollector& collector,
                                 std::size_t cache_bytes) {
  std::vector<Metric> out;
  auto value_of = [](const Attribution& a, const TimeMetric& m) {
    const int layer = static_cast<int>(m.layer);
    return m.inclusive ? a.inclusive_ns[layer] : a.self_ns[layer];
  };
  std::vector<std::int64_t> request_ns;
  for (const Attribution& a : collector.queries()) {
    request_ns.push_back(a.total_ns);
  }
  out.push_back({"bench.request_ns", Median(request_ns), "ns"});
  for (const TimeMetric& m : kTimeMetrics) {
    std::vector<std::int64_t> samples;
    for (const Attribution& a :
         m.write ? collector.writes() : collector.queries()) {
      samples.push_back(value_of(a, m));
    }
    // Run totals cover queries and writes alike.
    double total = 0.0;
    for (const auto* all : {&collector.queries(), &collector.writes()}) {
      for (const Attribution& a : *all) {
        total += static_cast<double>(value_of(a, m));
      }
    }
    out.push_back({std::string(m.name) + "_ns", Median(samples), "ns"});
    out.push_back({std::string(m.name) + "_total_ms", total / 1e6, "ms"});
  }

  const RequestCounts& c = collector.counts();
  const double queries =
      std::max<double>(1.0, static_cast<double>(collector.queries().size()));
  const double writes =
      std::max<double>(1.0, static_cast<double>(collector.writes().size()));
  auto per_query = [&](std::uint64_t v) {
    return static_cast<double>(v) / queries;
  };
  const std::uint64_t lookups = c.cache_hits + c.cache_misses;
  out.push_back({"cost.stats_rows", per_query(c.stats_rows), "rows/req"});
  out.push_back({"eval.rows_out", per_query(c.rows_out), "rows/req"});
  out.push_back({"eval.morsels", per_query(c.morsels), "count/req"});
  out.push_back({"eval.antijoin_build_tuples",
                 per_query(c.antijoin_build_tuples), "tuples/req"});
  out.push_back({"eval.disjuncts", per_query(c.disjuncts), "count/req"});
  out.push_back({"runtime.fetches", per_query(c.fetches), "calls/req"});
  out.push_back(
      {"runtime.physical_calls", per_query(c.physical_calls), "calls/req"});
  out.push_back({"runtime.cache_lookups", per_query(lookups), "count/req"});
  out.push_back({"runtime.cache_hit_ratio",
                 lookups == 0 ? 0.0
                              : static_cast<double>(c.cache_hits) /
                                    static_cast<double>(lookups),
                 "ratio"});
  out.push_back({"runtime.cache_flight_waits", per_query(c.cache_flight_waits),
                 "count/req"});
  out.push_back({"runtime.cache_evictions", per_query(c.cache_evictions),
                 "count/req"});
  out.push_back(
      {"runtime.cache_bytes", static_cast<double>(cache_bytes), "bytes"});
  out.push_back({"runtime.retries", per_query(c.retries), "count/req"});
  out.push_back({"runtime.giveups", per_query(c.giveups), "count/req"});
  out.push_back({"runtime.invalidated_entries",
                 static_cast<double>(c.invalidated_entries) / writes,
                 "count/op"});
  out.push_back({"eval.maintain_calls",
                 static_cast<double>(c.maintain_calls) / writes, "count/op"});
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const std::string& workload, bool correct,
                 std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-14s %-34s %16.6f %s\n", workload.c_str(),
                 m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (flag == "--workload" && value(&v)) {
      args->workload = v;
    } else if (flag == "--seed" && value(&v)) {
      args->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (flag == "--seconds" && value(&v)) {
      args->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace" && value(&v)) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      args->trace = v[0] - '0';
    } else if (flag == "--spans" && value(&v)) {
      args->spans_path = v;
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-digest") {
      args->corrupt_digest = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Run(const Args& args) {
  const std::optional<WorkloadDef> found =
      FindWorkload(args.workload, args.seed, args.tiny);
  if (!found) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  const WorkloadDef& def = *found;
  Checks checks;

  // Set-up, timed on its own: the median of every set-up this run does.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const auto start = Clock::now();
    std::unique_ptr<Prepared> prepared = SetUp(def, false);
    setup_s.push_back(SecondsSince(start));
    return prepared;
  };
  std::unique_ptr<Prepared> first = timed_setup();
  for (int i = 1; i < kMinSetups; ++i) timed_setup();

  if (def.name == "hot_serial") {
    CheckSandwich(*first, &checks);
    CheckContinuity(def, &checks);
  }

  // The reference pass, on the first set-up, is the first measured pass;
  // it fixes the digest and simulated latencies every later pass, traced or
  // not, must reproduce.
  const auto measure_start = Clock::now();
  const PassResult reference =
      RunPass(first->script, first->submit, &first->instance->clock());
  if (!reference.error.empty()) checks.Fail("reference: " + reference.error);
  if (!first->script.answers_lines.empty()) CheckStanding(*first, &checks);
  const std::uint64_t expected_hash =
      reference.answers_hash ^ (args.corrupt_digest ? 1u : 0u);
  first.reset();

  // Measured passes: a fresh set-up each, until the time is spent. In a
  // traced run each untraced pass is followed by a traced one — the same
  // stream through the replica, a span around every layer call — so drift
  // in machine speed reaches both kinds alike.
  Passes untraced;
  untraced.Add(reference);
  Passes traced;
  TraceCollector collector;
  std::size_t cache_bytes = 0;
  auto run_traced = [&] {
    std::unique_ptr<Prepared> prepared = SetUp(def, true);
    Replica* replica = prepared->replica.get();
    const Submitter submit = [&](const std::string& line,
                                 std::uint64_t request_id, bool write) {
      auto trace = std::make_unique<RequestTrace>(request_id, write);
      std::string reply;
      {
        TraceScope scope(trace.get());
        ScopedSpan root(Layer::kRequest);
        reply = replica->SubmitLine(line);
      }
      collector.Finish(std::move(trace), &checks);
      return reply;
    };
    const PassResult pass =
        RunPass(prepared->script, submit, &prepared->instance->clock());
    CheckPass(pass, reference, expected_hash,
              "traced pass " + std::to_string(traced.count), &checks);
    if (!prepared->script.answers_lines.empty()) {
      CheckStanding(*prepared, &checks);
    }
    cache_bytes = prepared->instance->daemon().shared_cache()->bytes();
    traced.Add(pass);
  };
  // Past the time budget, keep going until p99 has ten samples beyond it.
  auto enough = [&] {
    if (args.tiny) return true;
    return untraced.latency_us.size() >= kMinSamples &&
           (def.standing == 0 || untraced.write_us.size() >= kMinSamples);
  };
  // Two passes at least, so every run checks that a pass reproduces the
  // reference digest.
  while (untraced.count < 2 || SecondsSince(measure_start) < args.seconds ||
         !enough()) {
    std::unique_ptr<Prepared> prepared = timed_setup();
    const PassResult pass =
        RunPass(prepared->script, prepared->submit, &prepared->instance->clock());
    CheckPass(pass, reference, expected_hash,
              "pass " + std::to_string(untraced.count), &checks);
    if (!prepared->script.answers_lines.empty()) {
      CheckStanding(*prepared, &checks);
    }
    untraced.Add(pass);
    if (args.trace == 1) run_traced();
  }

  const std::size_t samples = untraced.latency_us.size();
  const std::size_t write_samples = untraced.write_us.size();
  std::fprintf(stderr,
               "%s seed %llu: answers_hash %llu, %d passes, %zu latency "
               "samples, %zu write samples, %zu set-ups\n",
               def.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(reference.answers_hash),
               untraced.count, samples, write_samples, setup_s.size());

  const double latency_p50 = Median(untraced.pass_p50_us);
  if (args.trace == 0) {
    const double ok =
        static_cast<double>(std::max<std::uint64_t>(1, untraced.ok));
    const std::vector<Metric> metrics = {
        {"req_per_s", Median(untraced.pass_rate), "1/s"},
        {"latency_p50_us", latency_p50, "us"},
        {"latency_p99_us", untraced.P99(), "us"},
        {"sim_latency_p99_us",
         static_cast<double>(Percentile(reference.sim_us, 0.99)), "sim_us"},
        {"calls_per_req", static_cast<double>(untraced.physical_calls) / ok,
         "calls/req"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    PrintResult(def.name, checks.ok(), untraced.attempted, untraced.failed,
                metrics);
    return checks.ok() ? 0 : 1;
  }

  if (!args.spans_path.empty() &&
      !WriteSpans(args.spans_path, collector.kept())) {
    checks.Fail("cannot write spans to " + args.spans_path);
  }

  std::vector<Metric> metrics = LayerMetrics(collector, cache_bytes);
  const double traced_p50 = Median(traced.pass_p50_us);
  metrics.push_back({"bench.trace_overhead_frac",
                     latency_p50 > 0 ? traced_p50 / latency_p50 - 1.0 : 0.0,
                     "ratio"});
  metrics.push_back({"bench.latency_samples", static_cast<double>(samples),
                     "count"});
  metrics.push_back({"bench.traced_samples",
                     static_cast<double>(traced.latency_us.size()), "count"});
  metrics.push_back(
      {"sim_latency_p50_us",
       static_cast<double>(Percentile(reference.sim_us, 0.50)), "sim_us"});
  metrics.push_back(
      {"write_latency_p50_us", Percentile(untraced.write_us, 0.50), "us"});
  metrics.push_back(
      {"write_latency_p99_us", Percentile(untraced.write_us, 0.99), "us"});
  metrics.push_back(
      {"failed_frac",
       static_cast<double>(untraced.failed) /
           static_cast<double>(std::max<std::uint64_t>(1, untraced.attempted)),
       "ratio"});
  PrintResult(def.name, checks.ok(), untraced.attempted + traced.attempted,
              untraced.failed + traced.failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ucqn_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt-digest] [--spans FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
