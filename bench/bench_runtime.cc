// Source-access runtime overhead and savings.
//
//  * BM_AnswerStarCacheSavings — ANSWER* on the paper scenarios with and
//    without the call cache. Qᵘ's calls are a subset of Qᵒ's, so one cache
//    shared across both plans absorbs the overlap; `calls_saved_pct` is
//    the headline number (>= 30% on the running example).
//  * BM_SharedCacheWarm — the cross-query version of the same overlap: a
//    scenario's ANSWER* run executed twice against one process-wide
//    SharedCacheStore (two SourceStacks, one store). The warm run's
//    physical calls drop to zero with byte-identical reports;
//    `warm_saved_pct` is the headline number (>= 50% required, 100%
//    measured on every scenario).
//  * BM_JoinPipelineCache — a selective join re-executed against a slow
//    simulated service; hit ratio and backend calls with/without cache.
//  * BM_DictionaryEncodedWaves — the dictionary-encoded executor on a
//    wide-frontier join (thousands of live bindings, long constant
//    names) with a negated literal and a warm shared-cache rerun: wave
//    dedup, anti-join membership probes, and cache keys all run over
//    flat uint32 ids instead of strings. Reports real wall-clock and
//    warm-cache hits, with answers checked against the per-binding
//    reference loop (`answers_match`).
//  * BM_RetryUnderFaults — a flaky service (seeded transient failures)
//    behind the retrying stack; measures attempts vs. logical calls and
//    the virtual time spent backing off.
//  * BM_StackOverhead — the full stack on an in-memory source, i.e. the
//    pure decorator cost when nothing goes wrong.
//  * BM_ParallelFanout — the paper's cost model head-on: one seed call
//    fanning out into k = 64 keyed calls of 500us each. The executor
//    batches the fan-out into one wave and the parallel dispatcher
//    overlaps it, so simulated wall-clock drops from (1 + k) x L
//    sequentially to (1 + ceil(k/p)) x L at parallelism p — with
//    byte-identical answers (asserted via `answers_match`).
//  * BM_OperatorDagDisjuncts — the operator-DAG executor's concurrency
//    payoff: a three-disjunct UCQ¬ (each disjunct a scan fanning a
//    6000-row combined frontier into keyed probes plus a negated
//    anti-join probe) against a 500us/call simulated service. At
//    disjunct_concurrency 1 the chains run one after another; at 3 the
//    three chains stage one wave each per round and resolve them in one
//    overlap bracket, so each round costs its slowest lane — simulated
//    wall-clock drops ~3x against concurrency 1 (>= 1.5x required) with
//    identical answers.
//  * BM_DaemonWarmStart — two QueryDaemon lifetimes over one snapshot
//    directory: the first serves a query cold and drains (spilling
//    cache.json/stats.json), the second boots from those files over a
//    fresh backend and serves the same query entirely from the restored
//    cache — `warm_physical_calls` is 0 with byte-identical answers.
//  * BM_CostModelSlowService — the adaptive cost model's headline
//    scenario: 64 keyed probes vs. one full scan of a 5000-tuple
//    relation. When the service is fast (500us/call) the keyed pattern
//    wins and both models issue it; when the same service is 10x slower
//    (5000us/call) the adaptive model — seeded with a StatsCatalog
//    observing that latency — flips to the scan pattern and cuts
//    simulated wall-clock by ~50x, with identical answers.
//
// The binary also writes BENCH_runtime.json (machine-readable summary of
// the fan-out sweep) to the working directory before running the
// benchmarks.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "ast/parser.h"
#include "cost/cost_model.h"
#include "cost/stats_catalog.h"
#include "eval/answer_star.h"
#include "eval/executor.h"
#include "gen/scenarios.h"
#include "runtime/fault_injection.h"
#include "runtime/source_stack.h"
#include "server/daemon.h"

namespace ucqn {
namespace {

// Scenarios whose ANSWER* run issues source calls (a database instance is
// bundled and both plans are non-trivial).
std::vector<Scenario> RuntimeScenarios() {
  std::vector<Scenario> out;
  for (Scenario& s : AllScenarios()) {
    if (s.database.TotalTuples() > 0) out.push_back(std::move(s));
  }
  return out;
}

void BM_AnswerStarCacheSavings(benchmark::State& state) {
  std::vector<Scenario> scenarios = RuntimeScenarios();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= scenarios.size()) {
    state.SkipWithError("no such scenario");
    return;
  }
  const Scenario& s = scenarios[index];
  const bool cached = state.range(1) != 0;

  ExecutionOptions options;
  options.runtime.cache = cached;

  std::uint64_t calls_bare = 0;
  std::uint64_t calls_used = 0;
  double hit_ratio = 0.0;
  for (auto _ : state) {
    // Baseline calls, outside the timed region's interest: the bare run.
    state.PauseTiming();
    DatabaseSource bare(&s.database, &s.catalog);
    AnswerStarReport plain = AnswerStar(s.query, s.catalog, &bare);
    if (!plain.ok) {
      state.SkipWithError("baseline ANSWER* failed");
      return;
    }
    calls_bare = bare.stats().calls;
    DatabaseSource backend(&s.database, &s.catalog);
    state.ResumeTiming();

    AnswerStarReport report = AnswerStar(s.query, s.catalog, &backend,
                                         options);
    if (!report.ok) {
      state.SkipWithError("ANSWER* failed");
      return;
    }
    calls_used = backend.stats().calls;
    hit_ratio = report.runtime.CacheHitRatio();
  }
  state.SetLabel(s.name);
  state.counters["cached"] = cached ? 1.0 : 0.0;
  state.counters["calls_bare"] = static_cast<double>(calls_bare);
  state.counters["calls_used"] = static_cast<double>(calls_used);
  state.counters["calls_saved_pct"] =
      calls_bare == 0
          ? 0.0
          : 100.0 * static_cast<double>(calls_bare - calls_used) /
                static_cast<double>(calls_bare);
  state.counters["cache_hit_ratio"] = hit_ratio;
}
BENCHMARK(BM_AnswerStarCacheSavings)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// --- cross-query reuse through the process-wide store ---------------------

struct SharedCacheRun {
  bool ok = false;
  std::uint64_t cold_calls = 0;  // physical calls of the first execution
  std::uint64_t warm_calls = 0;  // physical calls of the repeat
  double warm_hit_ratio = 0.0;
  bool answers_match = false;
};

// One scenario's ANSWER* run executed twice, each through its own
// SourceStack, both viewing one SharedCacheStore — the multi-query
// session `ucqnc --queries --shared-cache` runs, in miniature.
SharedCacheRun RunSharedCacheWarm(const Scenario& s) {
  DatabaseSource backend(&s.database, &s.catalog);
  SharedCacheStore store;
  RuntimeOptions runtime;
  runtime.shared_cache = &store;

  SourceStack cold_stack(&backend, runtime);
  AnswerStarReport cold = AnswerStar(s.query, s.catalog, cold_stack.source());
  SharedCacheRun run;
  run.cold_calls = backend.stats().calls;

  SourceStack warm_stack(&backend, runtime);
  AnswerStarReport warm = AnswerStar(s.query, s.catalog, warm_stack.source());
  run.warm_calls = backend.stats().calls - run.cold_calls;
  run.warm_hit_ratio = warm_stack.stats().CacheHitRatio();
  run.ok = cold.ok && warm.ok;
  run.answers_match = cold.under == warm.under && cold.over == warm.over &&
                      cold.complete == warm.complete;
  return run;
}

void BM_SharedCacheWarm(benchmark::State& state) {
  std::vector<Scenario> scenarios = RuntimeScenarios();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= scenarios.size()) {
    state.SkipWithError("no such scenario");
    return;
  }
  const Scenario& s = scenarios[index];
  SharedCacheRun run;
  for (auto _ : state) {
    run = RunSharedCacheWarm(s);
    if (!run.ok) {
      state.SkipWithError("ANSWER* failed");
      return;
    }
  }
  state.SetLabel(s.name);
  state.counters["cold_calls"] = static_cast<double>(run.cold_calls);
  state.counters["warm_calls"] = static_cast<double>(run.warm_calls);
  state.counters["warm_saved_pct"] =
      run.cold_calls == 0
          ? 0.0
          : 100.0 * static_cast<double>(run.cold_calls - run.warm_calls) /
                static_cast<double>(run.cold_calls);
  state.counters["warm_hit_ratio"] = run.warm_hit_ratio;
  state.counters["answers_match"] = run.answers_match ? 1.0 : 0.0;
}
BENCHMARK(BM_SharedCacheWarm)->DenseRange(0, 4);

Catalog JoinCatalog() {
  return Catalog::MustParse(R"(
    relation Big/2: oo io
    relation Mid/2: io
    relation Small/1: o
  )");
}

Database JoinDatabase(int big_size) {
  Database db;
  for (int i = 0; i < big_size; ++i) {
    db.Insert("Big", {Term::Constant("k" + std::to_string(i)),
                      Term::Constant("m" + std::to_string(i % 17))});
    db.Insert("Mid", {Term::Constant("m" + std::to_string(i % 17)),
                      Term::Constant("v" + std::to_string(i % 5))});
  }
  for (int i = 0; i < 8; ++i) {
    db.Insert("Small", {Term::Constant("k" + std::to_string(i * 3))});
  }
  return db;
}

void BM_JoinPipelineCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Catalog catalog = JoinCatalog();
  Database db = JoinDatabase(1024);
  ConjunctiveQuery plan =
      MustParseRule("Q(x, v) :- Small(x), Big(x, m), Mid(m, v).");

  // A simulated 500us/call service: the virtual clock prices each backend
  // call, so `service_us` shows what the cache saves in access latency,
  // not just call count.
  ExecutionOptions options;
  options.runtime.cache = cached;
  options.runtime.metering = true;

  std::uint64_t backend_calls = 0;
  double hit_ratio = 0.0;
  std::uint64_t service_micros = 0;
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseSource backend(&db, &catalog);
    FaultPlan faults;
    faults.latency_micros = 500;
    SimulatedClock clock;
    FaultInjectingSource slow(&backend, faults, &clock);
    state.ResumeTiming();

    // The query repeats Mid probes for every Big row sharing a key: the
    // cache collapses them. Two consecutive executions model the
    // ANSWER*-style repeat on top.
    SourceStack stack(&slow, options.runtime, &clock);
    ExecutionResult a = Execute(plan, catalog, stack.source());
    ExecutionResult b = Execute(plan, catalog, stack.source());
    if (!a.ok || !b.ok) {
      state.SkipWithError("execution failed");
      return;
    }
    backend_calls = backend.stats().calls;
    hit_ratio = stack.stats().CacheHitRatio();
    service_micros = slow.fault_stats().injected_latency_micros;
  }
  state.counters["cached"] = cached ? 1.0 : 0.0;
  state.counters["backend_calls"] = static_cast<double>(backend_calls);
  state.counters["cache_hit_ratio"] = hit_ratio;
  state.counters["service_us"] = static_cast<double>(service_micros);
}
BENCHMARK(BM_JoinPipelineCache)->Arg(0)->Arg(1);

// The dictionary-encoding workload: a frontier thousands of rows wide
// with deliberately long constant names (string hashing cost scales with
// them; id hashing does not), a keyed probe whose wave dedup collapses
// the frontier ~60:1, a negated literal filtering every row through a
// membership probe, and a second execution served from the warm shared
// cache — so wave-dedup signatures, anti-join probes, and cache keys
// dominate the profile, which is exactly where the ids pay.
Catalog EncodedWavesCatalog() {
  return Catalog::MustParse(R"(
    relation Wide/2: oo
    relation Probe/2: io
    relation Banned/1: o
  )");
}

Database EncodedWavesDatabase() {
  Database db;
  for (int i = 0; i < 6000; ++i) {
    db.Insert("Wide",
              {Term::Constant("wide-row-constant-" + std::to_string(i)),
               Term::Constant("mid-join-constant-" + std::to_string(i % 96))});
  }
  for (int j = 0; j < 96; ++j) {
    db.Insert("Probe",
              {Term::Constant("mid-join-constant-" + std::to_string(j)),
               Term::Constant("value-constant-" + std::to_string(j % 7))});
    if (j % 2 == 0) {
      db.Insert("Banned",
                {Term::Constant("mid-join-constant-" + std::to_string(j))});
    }
  }
  return db;
}

struct EncodedWavesRun {
  bool ok = false;
  std::uint64_t wall_micros = 0;
  std::set<Tuple> answers;
  std::uint64_t warm_hits = 0;
};

ConjunctiveQuery EncodedWavesPlan() {
  return MustParseRule("Q(x, v) :- Wide(x, m), Probe(m, v), not Banned(m).");
}

EncodedWavesRun RunEncodedWaves(const Catalog& catalog, const Database& db) {
  const ConjunctiveQuery plan = EncodedWavesPlan();
  DatabaseSource backend(&db, &catalog);
  ExecutionOptions options;
  options.runtime.cache = true;
  options.runtime.metering = true;

  EncodedWavesRun run;
  // One stack, two executions: the second is the warm rerun — every wave
  // resolves against the cache, isolating key construction + probe cost.
  SourceStack stack(&backend, options.runtime);
  const auto start = std::chrono::steady_clock::now();
  ExecutionResult cold = Execute(plan, catalog, stack.source(), options);
  ExecutionResult warm = Execute(plan, catalog, stack.source(), options);
  run.wall_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (!cold.ok || !warm.ok || cold.tuples != warm.tuples) return run;
  run.ok = true;
  run.answers = std::move(cold.tuples);
  run.warm_hits = stack.stats().cache_hits;
  return run;
}

// The same plan through the per-binding reference loop: the answer
// oracle for `answers_match`.
std::set<Tuple> ReferenceEncodedWavesAnswers(const Catalog& catalog,
                                             const Database& db) {
  DatabaseSource backend(&db, &catalog);
  ExecutionOptions options;
  options.batch = false;
  return Execute(EncodedWavesPlan(), catalog, &backend, options).tuples;
}

void BM_DictionaryEncodedWaves(benchmark::State& state) {
  const Catalog catalog = EncodedWavesCatalog();
  const Database db = EncodedWavesDatabase();

  EncodedWavesRun run;
  for (auto _ : state) {
    run = RunEncodedWaves(catalog, db);
    if (!run.ok) {
      state.SkipWithError("execution failed or cold/warm answers diverged");
      return;
    }
  }
  state.SetLabel("encoded");
  state.counters["answers"] = static_cast<double>(run.answers.size());
  state.counters["warm_hits"] = static_cast<double>(run.warm_hits);
  state.counters["answers_match"] =
      run.answers == ReferenceEncodedWavesAnswers(catalog, db) ? 1.0 : 0.0;
}
BENCHMARK(BM_DictionaryEncodedWaves);

void BM_RetryUnderFaults(benchmark::State& state) {
  const double failure_probability =
      static_cast<double>(state.range(0)) / 100.0;
  Catalog catalog = JoinCatalog();
  Database db = JoinDatabase(256);
  ConjunctiveQuery plan =
      MustParseRule("Q(x, v) :- Small(x), Big(x, m), Mid(m, v).");

  RuntimeOptions runtime;
  runtime.retry = true;
  runtime.retry_policy.max_attempts = 8;
  runtime.retry_policy.initial_backoff_micros = 100;
  runtime.metering = true;

  std::uint64_t attempts = 0;
  std::uint64_t logical_calls = 0;
  std::uint64_t backoff_micros = 0;
  std::uint64_t giveups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseSource backend(&db, &catalog);
    FaultPlan faults;
    faults.failure_probability = failure_probability;
    faults.seed = 17;
    SimulatedClock clock;
    FaultInjectingSource flaky(&backend, faults, &clock);
    state.ResumeTiming();

    SourceStack stack(&flaky, runtime, &clock);
    ExecutionResult result = Execute(plan, catalog, stack.source());
    if (!result.ok) {
      state.SkipWithError(result.error.c_str());
      return;
    }
    RuntimeStats stats = stack.stats();
    attempts = stats.source_calls;
    logical_calls = stats.source_calls - stats.retries;
    backoff_micros = stats.backoff_micros;
    giveups = stats.giveups;
  }
  state.counters["failure_pct"] = static_cast<double>(state.range(0));
  state.counters["attempts"] = static_cast<double>(attempts);
  state.counters["logical_calls"] = static_cast<double>(logical_calls);
  state.counters["backoff_us"] = static_cast<double>(backoff_micros);
  state.counters["giveups"] = static_cast<double>(giveups);
}
BENCHMARK(BM_RetryUnderFaults)->Arg(0)->Arg(10)->Arg(30);

void BM_StackOverhead(benchmark::State& state) {
  const bool stacked = state.range(0) != 0;
  Catalog catalog = JoinCatalog();
  Database db = JoinDatabase(1024);
  ConjunctiveQuery plan =
      MustParseRule("Q(x, v) :- Small(x), Big(x, m), Mid(m, v).");

  ExecutionOptions options;
  if (stacked) {
    options.runtime.cache = true;
    options.runtime.retry = true;
    options.runtime.metering = true;
  }
  DatabaseSource backend(&db, &catalog);
  for (auto _ : state) {
    ExecutionResult result = Execute(plan, catalog, &backend, options);
    if (!result.ok) {
      state.SkipWithError(result.error.c_str());
      return;
    }
    benchmark::DoNotOptimize(result.tuples);
  }
  state.counters["stacked"] = stacked ? 1.0 : 0.0;
}
BENCHMARK(BM_StackOverhead)->Arg(0)->Arg(1);

Catalog FanoutCatalog() {
  return Catalog::MustParse(R"(
    relation Seed/1: o
    relation Item/2: io
  )");
}

Database FanoutDatabase(int k) {
  Database db;
  for (int i = 0; i < k; ++i) {
    db.Insert("Seed", {Term::Constant("s" + std::to_string(i))});
    db.Insert("Item", {Term::Constant("s" + std::to_string(i)),
                       Term::Constant("v" + std::to_string(i % 7))});
  }
  return db;
}

constexpr int kFanout = 64;

struct FanoutRun {
  bool ok = false;
  std::uint64_t sim_wall_micros = 0;
  std::uint64_t backend_calls = 0;
  std::set<Tuple> answers;
};

// One seed scan + kFanout keyed probes against a 500us/call simulated
// service, executed through a stack with the given worker count. The
// SimulatedClock makes the wall-clock exact and repeatable: (1 +
// ceil(k/p)) x 500us.
FanoutRun RunFanout(std::size_t parallelism) {
  Catalog catalog = FanoutCatalog();
  Database db = FanoutDatabase(kFanout);
  ConjunctiveQuery plan = MustParseRule("Q(x, v) :- Seed(x), Item(x, v).");
  DatabaseSource backend(&db, &catalog);
  FaultPlan faults;
  faults.latency_micros = 500;
  SimulatedClock clock;
  FaultInjectingSource slow(&backend, faults, &clock);
  RuntimeOptions runtime;
  runtime.metering = true;  // keeps the stack enabled at parallelism 1 too
  runtime.parallelism = parallelism;
  SourceStack stack(&slow, runtime, &clock);
  ExecutionResult result = Execute(plan, catalog, stack.source());
  FanoutRun run;
  run.ok = result.ok;
  run.sim_wall_micros = clock.NowMicros();
  run.backend_calls = backend.stats().calls;
  run.answers = std::move(result.tuples);
  return run;
}

void BM_ParallelFanout(benchmark::State& state) {
  const auto parallelism = static_cast<std::size_t>(state.range(0));
  FanoutRun sequential = RunFanout(1);
  FanoutRun run;
  for (auto _ : state) {
    run = RunFanout(parallelism);
    if (!run.ok) {
      state.SkipWithError("fan-out execution failed");
      return;
    }
  }
  state.counters["parallelism"] = static_cast<double>(parallelism);
  state.counters["sim_wall_us"] = static_cast<double>(run.sim_wall_micros);
  state.counters["speedup"] =
      run.sim_wall_micros == 0
          ? 0.0
          : static_cast<double>(sequential.sim_wall_micros) /
                static_cast<double>(run.sim_wall_micros);
  state.counters["answers_match"] =
      run.answers == sequential.answers ? 1.0 : 0.0;
  state.counters["backend_calls"] = static_cast<double>(run.backend_calls);
}
BENCHMARK(BM_ParallelFanout)->Arg(1)->Arg(4)->Arg(16);

// --- inter-literal pipelining over an async transport ---------------------

Catalog ChainCatalog() {
  return Catalog::MustParse(R"(
    relation A/2: oo
    relation B/2: io
    relation C/2: io
  )");
}

constexpr int kChainWidth = 16;

Database ChainDatabase() {
  Database db;
  for (int i = 0; i < kChainWidth; ++i) {
    const std::string key = std::to_string(i);
    db.Insert("A", {Term::Constant("a" + key), Term::Constant("b" + key)});
    db.Insert("B", {Term::Constant("b" + key), Term::Constant("c" + key)});
    db.Insert("C", {Term::Constant("c" + key), Term::Constant("d" + key)});
  }
  return db;
}

struct ChainRun {
  bool ok = false;
  std::uint64_t sim_wall_micros = 0;
  std::uint64_t rounds = 0;
  std::uint64_t overlaps = 0;
  std::set<Tuple> answers;
};

// A 3-literal chain — one A scan fanning into kChainWidth keyed B probes,
// each fanning into one keyed C probe — against a 500us/call simulated
// service. At pipeline_depth 1 the stages serialize: (1 + 2k) x 500us. At
// depth >= 2 bindings that cleared B issue their C probes while B's
// remaining frontier is still resolving; the executor's overlap bracket
// charges concurrent waves max-over-lanes, so simulated wall-clock drops
// by ~45% with byte-identical answers (asserted via `answers_match`).
ChainRun RunChain(std::size_t pipeline_depth) {
  Catalog catalog = ChainCatalog();
  Database db = ChainDatabase();
  ConjunctiveQuery plan =
      MustParseRule("Q(x, w) :- A(x, y), B(y, z), C(z, w).");
  DatabaseSource backend(&db, &catalog);
  FaultPlan faults;
  faults.latency_micros = 500;
  SimulatedClock clock;
  FaultInjectingSource slow(&backend, faults, &clock);
  RuntimeOptions runtime;
  runtime.metering = true;  // keeps the stack enabled at depth 1 too
  runtime.pipeline_depth = pipeline_depth;
  runtime.clock = &clock;
  ExecutionOptions options;
  options.runtime = runtime;
  ExecutionResult result = Execute(plan, catalog, &slow, options);
  ChainRun run;
  run.ok = result.ok;
  run.sim_wall_micros = clock.NowMicros();
  run.rounds = result.runtime.pipeline_rounds;
  run.overlaps = result.runtime.pipeline_overlaps;
  run.answers = std::move(result.tuples);
  return run;
}

void BM_PipelinedChain(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  ChainRun sequential = RunChain(1);
  ChainRun run;
  for (auto _ : state) {
    run = RunChain(depth);
    if (!run.ok) {
      state.SkipWithError("pipelined execution failed");
      return;
    }
  }
  state.counters["pipeline_depth"] = static_cast<double>(depth);
  state.counters["sim_wall_us"] = static_cast<double>(run.sim_wall_micros);
  state.counters["speedup"] =
      run.sim_wall_micros == 0
          ? 0.0
          : static_cast<double>(sequential.sim_wall_micros) /
                static_cast<double>(run.sim_wall_micros);
  state.counters["rounds"] = static_cast<double>(run.rounds);
  state.counters["overlapped_rounds"] = static_cast<double>(run.overlaps);
  state.counters["answers_match"] =
      run.answers == sequential.answers ? 1.0 : 0.0;
}
BENCHMARK(BM_PipelinedChain)->Arg(1)->Arg(2)->Arg(3);

// --- concurrent disjunct chains through the operator DAG ------------------

constexpr int kDagDisjuncts = 3;
constexpr int kDagRowsPerDisjunct = 2000;  // 6000-row combined frontier
constexpr int kDagKeys = 32;

Catalog OperatorDagCatalog() {
  return Catalog::MustParse(R"(
    relation D1/2: oo
    relation D2/2: oo
    relation D3/2: oo
    relation T/2: io
    relation N/1: i
  )");
}

Database OperatorDagDatabase() {
  Database db;
  const std::vector<std::string> scans = {"D1", "D2", "D3"};
  for (std::size_t d = 0; d < scans.size(); ++d) {
    for (int i = 0; i < kDagRowsPerDisjunct; ++i) {
      db.Insert(scans[d],
                {Term::Constant(scans[d] + "_row" + std::to_string(i)),
                 Term::Constant("k" + std::to_string(i % kDagKeys))});
    }
  }
  for (int k = 0; k < kDagKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    db.Insert("T", {Term::Constant(key), Term::Constant("t" + key)});
    // Half the keys are negated away by the anti-join.
    if (k % 2 == 0) db.Insert("N", {Term::Constant(key)});
  }
  return db;
}

struct OperatorDagRun {
  bool ok = false;
  std::uint64_t sim_wall_micros = 0;
  std::uint64_t backend_calls = 0;
  std::uint64_t disjuncts = 0;
  std::uint64_t morsels = 0;
  std::uint64_t antijoin_build = 0;
  std::set<Tuple> answers;
};

// Three structurally identical disjuncts — scan, keyed join, negated
// probe — so every chain has the same per-round latency profile and the
// overlap bracket's max-over-lanes is a clean 1/3 of the serial sum.
OperatorDagRun RunOperatorDag(std::size_t concurrency) {
  Catalog catalog = OperatorDagCatalog();
  Database db = OperatorDagDatabase();
  UnionQuery query = MustParseUnionQuery(R"(
    Q(x, w) :- D1(x, z), T(z, w), not N(z).
    Q(x, w) :- D2(x, z), T(z, w), not N(z).
    Q(x, w) :- D3(x, z), T(z, w), not N(z).
  )");
  DatabaseSource backend(&db, &catalog);
  FaultPlan faults;
  faults.latency_micros = 500;
  SimulatedClock clock;
  FaultInjectingSource slow(&backend, faults, &clock);
  ExecutionOptions options;
  options.disjunct_concurrency = concurrency;
  options.runtime.metering = true;
  options.runtime.clock = &clock;
  ExecutionResult result = Execute(query, catalog, &slow, options);
  OperatorDagRun run;
  run.ok = result.ok;
  run.sim_wall_micros = clock.NowMicros();
  run.backend_calls = backend.stats().calls;
  run.disjuncts = result.runtime.disjuncts_executed;
  run.morsels = result.runtime.morsels;
  run.antijoin_build = result.runtime.antijoin_build_tuples;
  run.answers = std::move(result.tuples);
  return run;
}

void BM_OperatorDagDisjuncts(benchmark::State& state) {
  const auto concurrency = static_cast<std::size_t>(state.range(0));
  OperatorDagRun sequential = RunOperatorDag(1);
  OperatorDagRun run;
  for (auto _ : state) {
    run = RunOperatorDag(concurrency);
    if (!run.ok) {
      state.SkipWithError("operator-DAG execution failed");
      return;
    }
  }
  state.counters["disjunct_concurrency"] = static_cast<double>(concurrency);
  state.counters["calls"] = static_cast<double>(run.backend_calls);
  state.counters["sim_wall_us"] = static_cast<double>(run.sim_wall_micros);
  state.counters["speedup"] =
      run.sim_wall_micros == 0
          ? 0.0
          : static_cast<double>(sequential.sim_wall_micros) /
                static_cast<double>(run.sim_wall_micros);
  state.counters["morsels"] = static_cast<double>(run.morsels);
  state.counters["antijoin_build"] = static_cast<double>(run.antijoin_build);
  state.counters["answers_match"] =
      run.answers == sequential.answers ? 1.0 : 0.0;
}
BENCHMARK(BM_OperatorDagDisjuncts)->Arg(1)->Arg(3);

// --- daemon warm restart over spilled snapshots ---------------------------

struct DaemonWarmRun {
  bool ok = false;
  std::uint64_t cold_physical_calls = 0;
  std::uint64_t warm_physical_calls = 0;
  std::uint64_t warm_backend_calls = 0;  // what reaches the second backend
  bool answers_match = false;
};

// Two ucqnd lifetimes over one snapshot directory. The first daemon
// serves the join query cold and drains — the drain spills
// cache.json/stats.json. The second boots from those files over a fresh
// DatabaseSource and serves the same query; the acceptance bar is that
// it answers entirely from the restored cache: zero physical calls (both
// by the session's meter and by the backend's own counter), with
// byte-identical answers.
DaemonWarmRun RunDaemonWarmStart() {
  Catalog catalog = JoinCatalog();
  Database db = JoinDatabase(1024);
  // Per process, so concurrent runs (the smoke test and the simulated
  // pin under `ctest -j`) never remove each other's snapshot files.
  const std::string snapshot_dir =
      (std::filesystem::temp_directory_path() /
       ("ucqn_bench_daemon_snap-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(snapshot_dir);

  ServiceRequest request;
  request.id = "bench";
  request.query = "Q(x, v) :- Small(x), Big(x, m), Mid(m, v).";

  QueryDaemon::Options options;
  options.snapshot_dir = snapshot_dir;

  DaemonWarmRun run;
  ServiceResponse cold;
  {
    DatabaseSource backend(&db, &catalog);
    QueryDaemon daemon(&catalog, &backend, options);
    cold = daemon.Submit(request);
    daemon.Drain();
  }
  run.cold_physical_calls = cold.physical_calls;

  DatabaseSource warm_backend(&db, &catalog);
  QueryDaemon daemon(&catalog, &warm_backend, options);
  SnapshotLoadReport report;
  std::string error;
  if (!daemon.LoadSnapshots(&report, &error)) return run;
  ServiceResponse warm = daemon.Submit(request);
  run.warm_physical_calls = warm.physical_calls;
  run.warm_backend_calls = warm_backend.stats().calls;
  run.answers_match = cold.under == warm.under && cold.over == warm.over &&
                      cold.complete == warm.complete;
  run.ok = cold.status == ServiceResponse::Status::kOk &&
           warm.status == ServiceResponse::Status::kOk;
  std::filesystem::remove_all(snapshot_dir);
  return run;
}

void BM_DaemonWarmStart(benchmark::State& state) {
  DaemonWarmRun run;
  for (auto _ : state) {
    run = RunDaemonWarmStart();
    if (!run.ok) {
      state.SkipWithError("daemon warm start failed");
      return;
    }
  }
  state.counters["cold_physical_calls"] =
      static_cast<double>(run.cold_physical_calls);
  state.counters["warm_physical_calls"] =
      static_cast<double>(run.warm_physical_calls);
  state.counters["warm_backend_calls"] =
      static_cast<double>(run.warm_backend_calls);
  state.counters["answers_match"] = run.answers_match ? 1.0 : 0.0;
}
BENCHMARK(BM_DaemonWarmStart);

// --- adaptive cost model vs. a slow service -------------------------------

Catalog CostModelCatalog() {
  return Catalog::MustParse(R"(
    relation Seed/1: o
    relation Lookup/2: io oo
  )");
}

constexpr int kCostSeeds = 64;
constexpr int kLookupCardinality = 5000;

// Every seed key has exactly one Lookup row; the rest of the relation is
// filler the keyed pattern never touches but the scan must haul over.
Database CostModelDatabase() {
  Database db;
  for (int i = 0; i < kCostSeeds; ++i) {
    db.Insert("Seed", {Term::Constant("s" + std::to_string(i))});
    db.Insert("Lookup", {Term::Constant("s" + std::to_string(i)),
                         Term::Constant("v" + std::to_string(i % 7))});
  }
  for (int i = kCostSeeds; i < kLookupCardinality; ++i) {
    db.Insert("Lookup", {Term::Constant("f" + std::to_string(i)),
                         Term::Constant("w" + std::to_string(i % 11))});
  }
  return db;
}

struct CostModelRun {
  bool ok = false;
  std::uint64_t sim_wall_micros = 0;
  std::uint64_t backend_calls = 0;
  std::string lookup_pattern;
  std::set<Tuple> answers;
};

// One execution of Q(x, v) :- Seed(x), Lookup(x, v) against a simulated
// service where Lookup calls cost `lookup_latency_micros` each. With
// `adaptive` false the executor runs its default (static) policy and
// issues 64 keyed io probes; with `adaptive` true an AdaptiveCostModel —
// seeded with a StatsCatalog that has observed the given latency — prices
// both patterns as expected_calls x p50 + expected_tuples x tuple_cost
// and flips to the single oo scan once the keyed probes' latency bill
// exceeds the scan's tuple-transfer bill.
CostModelRun RunCostModel(std::uint64_t lookup_latency_micros, bool adaptive) {
  Catalog catalog = CostModelCatalog();
  Database db = CostModelDatabase();
  ConjunctiveQuery plan = MustParseRule("Q(x, v) :- Seed(x), Lookup(x, v).");
  DatabaseSource backend(&db, &catalog);
  FaultPlan faults;
  faults.latency_micros = 500;
  faults.relation_latency_micros["Lookup"] = lookup_latency_micros;
  SimulatedClock clock;
  FaultInjectingSource slow(&backend, faults, &clock);
  RuntimeOptions runtime;
  runtime.metering = true;
  SourceStack stack(&slow, runtime, &clock);

  // The stats a prior metered run against this fleet would have left
  // behind: 64 keyed Lookup calls at the service's latency, one tuple
  // each (what `ucqnc --stats-out` serializes).
  StatsCatalog stats;
  RelationStats seed_stats;
  seed_stats.calls = 1;
  seed_stats.tuples = kCostSeeds;
  seed_stats.p50_latency_micros = 500.0;
  stats.Record("Seed", seed_stats);
  RelationStats lookup_stats;
  lookup_stats.calls = kCostSeeds;
  lookup_stats.tuples = kCostSeeds;
  lookup_stats.p50_latency_micros =
      static_cast<double>(lookup_latency_micros);
  stats.Record("Lookup", lookup_stats);

  AdaptiveCostOptions cost_options;
  cost_options.tuple_cost_micros = 50.0;
  AdaptiveCostModel model(&stats, CardinalityEstimates::FromDatabase(db),
                          cost_options);

  ExecutionOptions options;
  if (adaptive) options.cost_model = &model;
  ExecutionResult result = Execute(plan, catalog, stack.source(), options);

  CostModelRun run;
  run.ok = result.ok;
  run.sim_wall_micros = clock.NowMicros();
  run.backend_calls = backend.stats().calls;
  run.answers = std::move(result.tuples);
  // Re-derive the Lookup decision at the executor's state (x bound, 64
  // live bindings) for the counters.
  {
    const CostModel* used =
        adaptive ? static_cast<const CostModel*>(&model) : nullptr;
    StaticCostModel fallback;
    if (used == nullptr) used = &fallback;
    BoundVariables bound;
    bound.insert("x");
    PlanContext context;
    context.live_bindings = static_cast<double>(kCostSeeds);
    std::optional<AccessPattern> chosen = ChoosePattern(
        catalog, plan.body()[1], bound, *used, context);
    run.lookup_pattern = chosen.has_value() ? chosen->word() : "none";
  }
  return run;
}

void BM_CostModelSlowService(benchmark::State& state) {
  const auto latency = static_cast<std::uint64_t>(state.range(0));
  const bool adaptive = state.range(1) != 0;
  CostModelRun baseline = RunCostModel(latency, /*adaptive=*/false);
  CostModelRun run;
  for (auto _ : state) {
    run = RunCostModel(latency, adaptive);
    if (!run.ok) {
      state.SkipWithError("cost-model execution failed");
      return;
    }
  }
  state.SetLabel((adaptive ? std::string("adaptive ") : std::string("static ")) +
                 "Lookup^" + run.lookup_pattern);
  state.counters["lookup_latency_us"] = static_cast<double>(latency);
  state.counters["adaptive"] = adaptive ? 1.0 : 0.0;
  state.counters["sim_wall_us"] = static_cast<double>(run.sim_wall_micros);
  state.counters["backend_calls"] = static_cast<double>(run.backend_calls);
  state.counters["speedup_vs_static"] =
      run.sim_wall_micros == 0
          ? 0.0
          : static_cast<double>(baseline.sim_wall_micros) /
                static_cast<double>(run.sim_wall_micros);
  state.counters["answers_match"] =
      run.answers == baseline.answers ? 1.0 : 0.0;
}
BENCHMARK(BM_CostModelSlowService)->ArgsProduct({{500, 5000}, {0, 1}});

// Machine-readable summary of the fan-out sweep, for EXPERIMENTS.md and
// CI trend lines.
void WriteBenchJson(const char* path) {
  FanoutRun sequential = RunFanout(1);
  std::string json = "{\"fanout\": {\"k\": " + std::to_string(kFanout) +
                     ", \"latency_us\": 500, \"runs\": [";
  bool first = true;
  for (std::size_t parallelism : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}}) {
    FanoutRun run = RunFanout(parallelism);
    if (!first) json += ", ";
    first = false;
    json += "{\"parallelism\": " + std::to_string(parallelism) +
            ", \"calls\": " + std::to_string(run.backend_calls) +
            ", \"sim_wall_us\": " + std::to_string(run.sim_wall_micros) +
            ", \"answers_match\": " +
            (run.answers == sequential.answers ? "true" : "false") + "}";
  }
  json += "]}, \"shared_cache\": {\"runs\": [";
  first = true;
  for (const Scenario& s : RuntimeScenarios()) {
    SharedCacheRun run = RunSharedCacheWarm(s);
    if (!first) json += ", ";
    first = false;
    const double saved_pct =
        run.cold_calls == 0
            ? 0.0
            : 100.0 * static_cast<double>(run.cold_calls - run.warm_calls) /
                  static_cast<double>(run.cold_calls);
    json += "{\"scenario\": \"" + s.name +
            "\", \"cold_calls\": " + std::to_string(run.cold_calls) +
            ", \"warm_calls\": " + std::to_string(run.warm_calls) +
            ", \"warm_saved_pct\": " + std::to_string(saved_pct) +
            ", \"answers_match\": " + (run.answers_match ? "true" : "false") +
            "}";
  }
  json += "]}, \"dictionary\": ";
  {
    const Catalog catalog = EncodedWavesCatalog();
    const Database db = EncodedWavesDatabase();
    // Best of a few repetitions: the workload is CPU-bound on
    // dedup/probe/key work, so min filters scheduler noise.
    EncodedWavesRun encoded;
    for (int rep = 0; rep < 5; ++rep) {
      EncodedWavesRun e = RunEncodedWaves(catalog, db);
      if (!encoded.ok || (e.ok && e.wall_micros < encoded.wall_micros)) {
        encoded = std::move(e);
      }
    }
    json += "{\"frontier_rows\": 6000, \"distinct_probes\": 96"
            ", \"encoded_wall_us\": " + std::to_string(encoded.wall_micros) +
            ", \"warm_hits\": " + std::to_string(encoded.warm_hits) +
            ", \"answers\": " + std::to_string(encoded.answers.size()) +
            ", \"answers_match\": " +
            (encoded.ok &&
                     encoded.answers == ReferenceEncodedWavesAnswers(catalog, db)
                 ? "true"
                 : "false") +
            "}";
  }
  json += ", \"pipeline\": {\"chain_width\": " +
          std::to_string(kChainWidth) + ", \"latency_us\": 500, \"runs\": [";
  first = true;
  {
    ChainRun chain_sequential = RunChain(1);
    for (std::size_t depth : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
      ChainRun run = RunChain(depth);
      if (!first) json += ", ";
      first = false;
      json += "{\"pipeline_depth\": " + std::to_string(depth) +
              ", \"sim_wall_us\": " + std::to_string(run.sim_wall_micros) +
              ", \"rounds\": " + std::to_string(run.rounds) +
              ", \"overlapped_rounds\": " + std::to_string(run.overlaps) +
              ", \"answers_match\": " +
              (run.answers == chain_sequential.answers ? "true" : "false") +
              "}";
    }
  }
  json += "]}, \"operator_dag\": {\"disjuncts\": " +
          std::to_string(kDagDisjuncts) + ", \"frontier_rows\": " +
          std::to_string(kDagDisjuncts * kDagRowsPerDisjunct) +
          ", \"latency_us\": 500, \"runs\": [";
  first = true;
  {
    OperatorDagRun sequential = RunOperatorDag(1);
    for (std::size_t concurrency : {std::size_t{1}, std::size_t{3}}) {
      OperatorDagRun run = RunOperatorDag(concurrency);
      if (!first) json += ", ";
      first = false;
      const double speedup =
          run.sim_wall_micros == 0
              ? 0.0
              : static_cast<double>(sequential.sim_wall_micros) /
                    static_cast<double>(run.sim_wall_micros);
      json += "{\"executor\": \"dag\", \"disjunct_concurrency\": " +
              std::to_string(concurrency) +
              ", \"calls\": " + std::to_string(run.backend_calls) +
              ", \"sim_wall_us\": " + std::to_string(run.sim_wall_micros) +
              ", \"speedup\": " + std::to_string(speedup) +
              ", \"morsels\": " + std::to_string(run.morsels) +
              ", \"antijoin_build\": " + std::to_string(run.antijoin_build) +
              ", \"answers_match\": " +
              (run.ok && sequential.ok && run.answers == sequential.answers
                   ? "true"
                   : "false") +
              "}";
    }
  }
  json += "]}, \"cost_model\": {\"seeds\": " + std::to_string(kCostSeeds) +
          ", \"lookup_cardinality\": " + std::to_string(kLookupCardinality) +
          ", \"runs\": [";
  first = true;
  for (std::uint64_t latency : {std::uint64_t{500}, std::uint64_t{5000}}) {
    CostModelRun baseline = RunCostModel(latency, /*adaptive=*/false);
    for (bool adaptive : {false, true}) {
      CostModelRun run = RunCostModel(latency, adaptive);
      if (!first) json += ", ";
      first = false;
      json += "{\"lookup_latency_us\": " + std::to_string(latency) +
              ", \"model\": \"" +
              (adaptive ? std::string("adaptive") : std::string("static")) +
              "\", \"lookup_pattern\": \"" + run.lookup_pattern +
              "\", \"calls\": " + std::to_string(run.backend_calls) +
              ", \"sim_wall_us\": " + std::to_string(run.sim_wall_micros) +
              ", \"answers_match\": " +
              (run.answers == baseline.answers ? "true" : "false") + "}";
    }
  }
  json += "]}, \"daemon_warm_start\": ";
  {
    DaemonWarmRun run = RunDaemonWarmStart();
    json += "{\"cold_physical_calls\": " +
            std::to_string(run.cold_physical_calls) +
            ", \"warm_physical_calls\": " +
            std::to_string(run.warm_physical_calls) +
            ", \"warm_backend_calls\": " +
            std::to_string(run.warm_backend_calls) +
            ", \"answers_match\": " + (run.answers_match ? "true" : "false") +
            "}";
  }
  json += "}\n";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_runtime: cannot write %s\n", path);
    return;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace ucqn

int main(int argc, char** argv) {
  ucqn::WriteBenchJson("BENCH_runtime.json");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
