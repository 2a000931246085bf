#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <utility>

#include "eval/delta.h"
#include "util/json.h"

namespace perfbench {

namespace {

// bench/bench_workload.cc's BenchGenOptions: an adversarial 6-link chain
// over a small domain, Zipf-repeated templates, uniform 200 us service
// latency, no failures.
ucqn::WorkloadGenOptions HotGenOptions() {
  ucqn::WorkloadGenOptions options;
  options.seed = 20;
  options.chain_length = 6;
  options.enumerable_relations = 2;
  options.decoy_relations = 4;
  options.domain_size = 16;
  options.tuples_per_relation = 32;
  options.num_queries = 400;
  options.max_literals = 4;
  options.negation_prob = 0.25;
  options.constant_prob = 0.6;
  options.union_prob = 0.2;
  options.zipf_s = 1.1;
  options.latency_micros = 200;
  options.failure_probability = 0.0;
  options.slow_relations = 0;
  options.replay.zipf_s = 1.0;
  options.replay.tenants = 4;
  return options;
}

// bench_workload's adaptive_fanout configuration.
ucqn::WorkloadReplayOptions HotReplayOptions() {
  ucqn::WorkloadReplayOptions options;
  options.cost_model = "adaptive";
  options.fanout_feedback = true;
  options.cache_ttl_micros = 1000;
  return options;
}

std::string QueryLine(const std::string& id, const std::string& tenant,
                      const std::string& query, bool standing) {
  std::string line = "{\"op\": \"query\", \"id\": " + ucqn::JsonQuote(id) +
                     ", \"tenant\": " + ucqn::JsonQuote(tenant) +
                     ", \"query\": " + ucqn::JsonQuote(query);
  if (standing) line += ", \"standing\": true";
  return line + "}";
}

std::string TupleListJson(const std::vector<ucqn::Tuple>& tuples) {
  std::string out = "[";
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "[";
    for (std::size_t j = 0; j < tuples[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += ucqn::JsonQuote(tuples[i][j].name());
    }
    out += "]";
  }
  return out + "]";
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t hash, const std::string& bytes) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

bool IsFailure(ucqn::ServiceResponse::Status status) {
  return status != ucqn::ServiceResponse::Status::kOk;
}

}  // namespace

std::optional<WorkloadDef> FindWorkload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  WorkloadDef def;
  def.name = name;
  def.gen = HotGenOptions();
  def.replay = HotReplayOptions();
  def.requests = tiny ? 300 : 30000;
  def.warmup_sweep = true;
  if (name == "hot_serial") {
  } else if (name == "cold_wide") {
    // A uniform replay on a wide instance: each template is seen once and
    // frontiers run to thousands of rows. One 10x-slow link, one flaky
    // enumerable relation.
    def.gen.domain_size = 256;
    def.gen.tuples_per_relation = 1024;
    def.gen.num_queries = 250;
    def.gen.union_prob = 0.3;
    def.gen.slow_relations = 1;
    def.gen.flaky_relations = 1;
    def.gen.flaky_failure_probability = 0.02;
    // Per-call jitter keeps simulated latencies off the 200 us grid, so
    // they differ from seed to seed.
    def.gen.latency_jitter_micros = 50;
    def.gen.replay.zipf_s = 0.0;
    def.replay.retry_attempts = 4;
    // Below the ~MB an unbounded pass ends with (see README.md).
    def.replay.cache_budget_bytes = 512u << 10;
    def.shuffle_all = true;
    def.warmup_sweep = false;
    if (tiny) {
      def.gen.tuples_per_relation = 256;
      def.gen.num_queries = 40;
    }
    def.requests = static_cast<std::uint64_t>(def.gen.num_queries);
  } else if (name == "delta_mixed") {
    // Writes next to reads: the hot instance with an update batch on ~5%
    // of request indices and the 8 hottest templates kept standing.
    def.gen.update_rate = 0.05;
    def.standing = 8;
  } else {
    return std::nullopt;
  }
  if (tiny) def.gen.num_queries = std::min(def.gen.num_queries, 200);
  def.gen.replay.seed = seed;
  def.gen.replay.requests = def.requests;
  return def;
}

Script MakeScript(const WorkloadDef& def) {
  Script script;
  script.spec = ucqn::GenerateWorkload(def.gen);
  // The fault schedule (jitter, flaky failures) follows the run's seed.
  script.spec.faults.seed = def.gen.replay.seed;
  const ucqn::WorkloadSpec& spec = script.spec;

  std::vector<ucqn::ReplayRequest> sequence;
  if (def.shuffle_all) {
    for (std::size_t i = 0; i < spec.queries.size(); ++i) {
      sequence.push_back({i, static_cast<int>(i % static_cast<std::size_t>(
                                                      spec.replay.tenants))});
    }
    std::mt19937_64 rng(spec.replay.seed);
    std::shuffle(sequence.begin(), sequence.end(), rng);
  } else {
    sequence = ucqn::BuildRequestSequence(spec, def.requests);
  }
  for (const ucqn::ReplayRequest& request : sequence) {
    script.query_lines.push_back(QueryLine(
        std::to_string(script.query_lines.size()),
        "t" + std::to_string(request.tenant),
        spec.queries[request.query_index], false));
  }

  // One `delta` line per (request index, relation) group, deletes and
  // inserts together — ReplayWorkload's grouping.
  std::map<std::uint64_t, std::vector<ucqn::RelationDelta>> batches;
  for (const ucqn::WorkloadDeltaEvent& event : spec.deltas) {
    if (event.at_request >= def.requests) continue;
    std::vector<ucqn::RelationDelta>& groups = batches[event.at_request];
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const ucqn::RelationDelta& group) {
                             return group.relation == event.relation;
                           });
    if (it == groups.end()) {
      groups.emplace_back();
      groups.back().relation = event.relation;
      it = std::prev(groups.end());
    }
    (event.insert ? it->inserts : it->deletes).push_back(event.tuple);
  }
  for (const auto& [at, groups] : batches) {
    for (const ucqn::RelationDelta& group : groups) {
      std::string line = "{\"op\": \"delta\", \"id\": " +
                         ucqn::JsonQuote("delta@" + std::to_string(at)) +
                         ", \"relation\": " + ucqn::JsonQuote(group.relation);
      if (!group.inserts.empty()) {
        line += ", \"insert\": " + TupleListJson(group.inserts);
      }
      if (!group.deletes.empty()) {
        line += ", \"delete\": " + TupleListJson(group.deletes);
      }
      script.delta_lines[at].push_back(line + "}");
    }
  }

  if (def.warmup_sweep) {
    for (std::size_t i = 0; i < spec.queries.size(); ++i) {
      script.sweep_lines.push_back(QueryLine("sweep" + std::to_string(i),
                                             "t0", spec.queries[i], false));
    }
  }
  // Template rank k is drawn with probability ~ 1/(k+1)^s, so the first
  // templates are the hottest.
  for (std::size_t i = 0; i < std::min(def.standing, spec.queries.size());
       ++i) {
    const std::string id = "standing" + std::to_string(i);
    script.standing_lines.push_back(
        QueryLine(id, "t0", spec.queries[i], true));
    script.answers_lines.push_back("{\"op\": \"answers\", \"id\": " +
                                   ucqn::JsonQuote(id) +
                                   ", \"tenant\": \"t0\"}");
    script.fresh_lines.push_back(
        QueryLine("fresh" + std::to_string(i), "t0", spec.queries[i], false));
  }
  return script;
}

Instance::Instance(const WorkloadDef& def, const ucqn::WorkloadSpec& spec,
                   bool traced)
    : spec_(spec),
      database_(spec.database),
      backend_(&database_, &spec.catalog),
      backend_timer_(&backend_, Layer::kBackend),
      faulty_(traced ? static_cast<ucqn::Source*>(&backend_timer_)
                     : static_cast<ucqn::Source*>(&backend_),
              spec.faults, &clock_),
      transport_timer_(&faulty_, Layer::kTransport),
      transport_(traced ? static_cast<ucqn::Source*>(&transport_timer_)
                        : static_cast<ucqn::Source*>(&faulty_)) {
  // ReplayWorkload's daemon wiring, option for option.
  const ucqn::WorkloadReplayOptions& options = def.replay;
  ucqn::QueryDaemon::Options daemon_options;
  daemon_options.runtime.clock = &clock_;
  daemon_options.runtime.retry = options.retry_attempts > 1;
  daemon_options.runtime.retry_policy.max_attempts = options.retry_attempts;
  daemon_options.runtime.parallelism =
      std::max<std::size_t>(options.parallelism, 1);
  daemon_options.runtime.pipeline_depth =
      std::max<std::size_t>(options.pipeline_depth, 1);
  daemon_options.disjunct_concurrency =
      std::max<std::size_t>(options.disjunct_concurrency, 1);
  daemon_options.cache.default_ttl_micros = options.cache_ttl_micros;
  daemon_options.cache.budget_bytes = options.cache_budget_bytes;
  daemon_options.cache.clock = &clock_;
  daemon_options.admission.max_in_flight = options.max_in_flight;
  daemon_options.admission.max_queued = options.max_queued;
  daemon_options.default_quota.max_concurrent = options.tenant_max_concurrent;
  daemon_options.adaptive_cost_model = options.cost_model == "adaptive";
  daemon_options.fanout_feedback = options.fanout_feedback;
  daemon_options.database = &database_;
  daemon_ = std::make_unique<ucqn::QueryDaemon>(&spec.catalog, transport_,
                                                daemon_options);
}

std::uint64_t ResponseHash(std::uint64_t request_index,
                           const ucqn::ServiceResponse& response) {
  std::uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, std::to_string(request_index));
  for (const ucqn::Tuple& tuple : response.under) {
    hash = FnvMix(FnvMix(hash, "u"), ucqn::TupleToString(tuple));
  }
  for (const ucqn::Tuple& tuple : response.over) {
    hash = FnvMix(FnvMix(hash, "o"), ucqn::TupleToString(tuple));
  }
  return hash;
}

PassResult RunPass(const Script& script, const Submitter& submit,
                   ucqn::SimulatedClock* clock) {
  using Clock = std::chrono::steady_clock;
  auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  PassResult out;
  std::string error;
  // Counts one reply; false (with out.error set) on a malformed line.
  auto tally = [&](const std::string& reply,
                   std::optional<ucqn::ServiceResponse>* response) {
    ++out.attempted;
    *response = ucqn::ParseServiceResponse(reply, &error);
    if (!*response) {
      out.error = "bad response line: " + error;
      return false;
    }
    if (IsFailure((*response)->status)) ++out.failed;
    return true;
  };

  const auto start = Clock::now();
  std::optional<ucqn::ServiceResponse> response;
  for (std::uint64_t r = 0; r < script.query_lines.size(); ++r) {
    const auto deltas = script.delta_lines.find(r);
    if (deltas != script.delta_lines.end()) {
      for (const std::string& line : deltas->second) {
        const auto t0 = Clock::now();
        const std::string reply = submit(line, r, true);
        out.write_us.push_back(micros(Clock::now() - t0));
        if (!tally(reply, &response)) return out;
      }
    }
    const std::uint64_t sim_before = clock->NowMicros();
    const auto t0 = Clock::now();
    const std::string reply = submit(script.query_lines[r], r, false);
    out.latency_us.push_back(micros(Clock::now() - t0));
    out.sim_us.push_back(clock->NowMicros() - sim_before);
    if (!tally(reply, &response)) return out;
    if (IsFailure(response->status)) continue;
    ++out.ok;
    out.physical_calls += response->physical_calls;
    out.answers_hash ^= ResponseHash(r, *response);
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace perfbench
