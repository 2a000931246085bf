// QueryDaemon: the multi-tenant service core — sessions over the shared
// runtime, tenant quotas, admission shed/drain behavior under
// over-admission, snapshot spill/restore, the warm-restart contract
// (a previously seen query costs zero physical source calls), and the
// prepared-query cache (parse, schema check and PLAN* once per text).

#include "server/daemon.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/listener.h"
#include "server/prepared_query.h"
#include "server/snapshot.h"
#include "util/json.h"

namespace ucqn {
namespace {

// Wraps a source so every Fetch parks until the gate opens — the test's
// handle on "a session is in flight right now".
class GatedSource : public Source {
 public:
  explicit GatedSource(Source* inner) : inner_(inner) {}

  FetchResult Fetch(const std::string& relation, const AccessPattern& pattern,
                    const std::vector<std::optional<Term>>& inputs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return inner_->Fetch(relation, pattern, inputs);
  }

  void WaitUntilEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  Source* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

ServiceRequest QueryRequest(const std::string& id, const std::string& tenant,
                            const std::string& query) {
  ServiceRequest request;
  request.id = id;
  request.tenant = tenant;
  request.query = query;
  return request;
}

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() {
    catalog_ = Catalog::MustParse("L/1: o\nB/2: io\n");
    db_ = Database::MustParseFacts(R"(
      L("a").
      L("b").
      B("a", "x").
      B("b", "y").
    )");
  }

  Catalog catalog_;
  Database db_;
  const std::string join_query_ = "Q(x, y) :- L(x), B(x, y).";
};

TEST_F(DaemonTest, ServesQueriesOverOneSharedCache) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});

  ServiceResponse cold = daemon.Submit(QueryRequest("q1", "alice", join_query_));
  ASSERT_EQ(cold.status, ServiceResponse::Status::kOk) << cold.error;
  EXPECT_EQ(cold.under.size(), 2u);
  EXPECT_TRUE(cold.complete);
  EXPECT_GT(cold.physical_calls, 0u);

  // A different tenant repeats the query: every call hits the shared
  // store — the multi-tenant reuse the daemon exists for.
  const std::uint64_t backend_calls = backend.stats().calls;
  ServiceResponse warm = daemon.Submit(QueryRequest("q2", "bob", join_query_));
  ASSERT_EQ(warm.status, ServiceResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.under, cold.under);
  EXPECT_EQ(warm.over, cold.over);
  EXPECT_EQ(backend.stats().calls, backend_calls);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(daemon.queries_served(), 2u);

  const std::string status = daemon.StatusJson();
  EXPECT_NE(status.find("\"queries_served\": 2"), std::string::npos);
  EXPECT_NE(status.find("\"alice\""), std::string::npos);
  EXPECT_NE(status.find("\"bob\""), std::string::npos);
}

TEST_F(DaemonTest, BadQueriesPoisonOnlyThemselves) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});

  ServiceResponse parse_error =
      daemon.Submit(QueryRequest("q1", "alice", "Q(x) :- L(x"));
  EXPECT_EQ(parse_error.status, ServiceResponse::Status::kError);
  EXPECT_NE(parse_error.error.find("query error"), std::string::npos);

  ServiceResponse schema_error =
      daemon.Submit(QueryRequest("q2", "alice", "Q(x) :- Missing(x)."));
  EXPECT_EQ(schema_error.status, ServiceResponse::Status::kError);
  EXPECT_NE(schema_error.error.find("schema mismatch"), std::string::npos);

  // A garbage line through the transport path is also just one error.
  const std::string bad = daemon.SubmitLine("not json at all");
  EXPECT_NE(bad.find("\"status\": \"error\""), std::string::npos);

  ServiceResponse ok = daemon.Submit(QueryRequest("q3", "alice", join_query_));
  EXPECT_EQ(ok.status, ServiceResponse::Status::kOk) << ok.error;
}

TEST_F(DaemonTest, DeeplyNestedLineIsOneErrorThenTheNextRequestIsServed) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});

  const std::string bad = daemon.SubmitLine(std::string(200000, '['));
  EXPECT_NE(bad.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(bad.find("nesting deeper than"), std::string::npos);
  EXPECT_EQ(bad.find('\n'), std::string::npos);

  const std::string next = daemon.SubmitLine(
      R"({"id": "q1", "query": "Q(x, y) :- L(x), B(x, y)."})");
  EXPECT_NE(next.find("\"status\": \"ok\""), std::string::npos) << next;
}

TEST_F(DaemonTest, TenantQuotaRefusesConcurrentOveruse) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  QueryDaemon::Options options;
  options.default_quota.max_concurrent = 1;
  QueryDaemon daemon(&catalog_, &gated, options);

  std::thread busy([&] {
    ServiceResponse r = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    EXPECT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
  });
  gated.WaitUntilEntered(1);

  // alice is at her cap; bob is not.
  ServiceResponse refused =
      daemon.Submit(QueryRequest("q2", "alice", join_query_));
  EXPECT_EQ(refused.status, ServiceResponse::Status::kQuotaRefused);

  gated.Open();
  busy.join();
  // With her slot back, alice is served again.
  ServiceResponse ok = daemon.Submit(QueryRequest("q3", "alice", join_query_));
  EXPECT_EQ(ok.status, ServiceResponse::Status::kOk) << ok.error;
}

TEST_F(DaemonTest, OverAdmissionShedsInsteadOfQueueingUnbounded) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  QueryDaemon::Options options;
  options.admission.max_in_flight = 1;
  options.admission.max_queued = 0;
  QueryDaemon daemon(&catalog_, &gated, options);

  std::thread busy([&] {
    ServiceResponse r = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    EXPECT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
  });
  gated.WaitUntilEntered(1);

  ServiceResponse shed = daemon.Submit(QueryRequest("q2", "bob", join_query_));
  EXPECT_EQ(shed.status, ServiceResponse::Status::kShed);
  EXPECT_EQ(daemon.admission()->counters().shed, 1u);
  // The shed request's tenant slot was released, not leaked.
  EXPECT_EQ(daemon.tenants()->counters()["bob"].in_flight, 0u);

  gated.Open();
  busy.join();
  ServiceResponse ok = daemon.Submit(QueryRequest("q3", "bob", join_query_));
  EXPECT_EQ(ok.status, ServiceResponse::Status::kOk) << ok.error;
}

TEST_F(DaemonTest, DrainFinishesInFlightAndRefusesNew) {
  DatabaseSource backend(&db_, &catalog_);
  GatedSource gated(&backend);
  QueryDaemon daemon(&catalog_, &gated, {});

  std::atomic<bool> in_flight_done{false};
  std::thread busy([&] {
    ServiceResponse r = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    EXPECT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
    in_flight_done.store(true);
  });
  gated.WaitUntilEntered(1);

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    daemon.Drain();
    drained.store(true);
  });
  while (!daemon.admission()->draining()) std::this_thread::yield();

  // New arrivals are refused while the in-flight session runs on.
  ServiceResponse refused =
      daemon.Submit(QueryRequest("q2", "bob", join_query_));
  EXPECT_EQ(refused.status, ServiceResponse::Status::kDraining);
  EXPECT_FALSE(drained.load());

  gated.Open();
  busy.join();
  drainer.join();
  EXPECT_TRUE(in_flight_done.load());
  EXPECT_TRUE(drained.load());
}

TEST_F(DaemonTest, WarmRestartServesSeenQueriesWithZeroPhysicalCalls) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ucqnd_warm_restart")
          .string();
  std::filesystem::remove_all(dir);
  QueryDaemon::Options options;
  options.snapshot_dir = dir;

  ServiceResponse cold;
  {
    DatabaseSource backend(&db_, &catalog_);
    QueryDaemon daemon(&catalog_, &backend, options);
    SnapshotLoadReport report;
    std::string error;
    ASSERT_TRUE(daemon.LoadSnapshots(&report, &error)) << error;
    EXPECT_FALSE(report.cache_loaded);  // first boot: nothing to load
    cold = daemon.Submit(QueryRequest("q1", "alice", join_query_));
    ASSERT_EQ(cold.status, ServiceResponse::Status::kOk) << cold.error;
    EXPECT_GT(cold.physical_calls, 0u);
    daemon.Drain();  // spills cache.json + stats.json
  }

  // A new process: fresh backend, fresh daemon, same snapshot dir. The
  // seen query is served entirely from the restored cache — the backend
  // is never called at all.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, options);
  SnapshotLoadReport report;
  std::string error;
  ASSERT_TRUE(daemon.LoadSnapshots(&report, &error)) << error;
  EXPECT_TRUE(report.cache_loaded);
  EXPECT_TRUE(report.stats_loaded);
  EXPECT_GT(report.cache_entries, 0u);

  ServiceResponse warm = daemon.Submit(QueryRequest("w1", "bob", join_query_));
  ASSERT_EQ(warm.status, ServiceResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.under, cold.under);
  EXPECT_EQ(warm.over, cold.over);
  EXPECT_EQ(warm.complete, cold.complete);
  EXPECT_EQ(warm.physical_calls, 0u);
  EXPECT_EQ(backend.stats().calls, 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(DaemonTest, AdminOpsReportAndInvalidate) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  ASSERT_EQ(daemon.Submit(QueryRequest("q1", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
  EXPECT_GT(daemon.shared_cache()->size(), 0u);

  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  stats.id = "s1";
  ServiceResponse stats_response = daemon.Submit(stats);
  ASSERT_EQ(stats_response.status, ServiceResponse::Status::kOk);
  EXPECT_NE(stats_response.payload_json.find("\"queries_served\": 1"),
            std::string::npos);

  ServiceRequest invalidate;
  invalidate.op = ServiceRequest::Op::kInvalidate;
  ServiceResponse inv_response = daemon.Submit(invalidate);
  ASSERT_EQ(inv_response.status, ServiceResponse::Status::kOk);
  EXPECT_EQ(daemon.shared_cache()->size(), 0u);

  // Snapshot op without a configured dir is a per-request error, not a
  // crash — and not a daemon-wide failure.
  ServiceRequest snapshot;
  snapshot.op = ServiceRequest::Op::kSnapshot;
  ServiceResponse snap_response = daemon.Submit(snapshot);
  EXPECT_EQ(snap_response.status, ServiceResponse::Status::kError);
  EXPECT_EQ(daemon.Submit(QueryRequest("q2", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
}

TEST_F(DaemonTest, TenantCallBudgetCapsTheRequestAsk) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.default_quota.max_calls_per_query = 1;
  QueryDaemon daemon(&catalog_, &backend, options);

  // The join needs 3 physical calls; a 1-call tenant budget stops it.
  ServiceRequest request = QueryRequest("q1", "alice", join_query_);
  request.max_calls = 100;  // the request cannot raise its tenant's cap
  ServiceResponse capped = daemon.Submit(request);
  EXPECT_EQ(capped.status, ServiceResponse::Status::kError);
  EXPECT_FALSE(capped.error.empty());
}

TEST_F(DaemonTest, InvalidateOpForgetsStatsSoThePlannerReprices) {
  // The staleness bugfix: `invalidate` used to clear the shared cache but
  // leave the StatsCatalog, so the adaptive planner kept pricing the
  // changed service with pre-update latencies and fanouts. Both ledgers
  // must drop together.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.adaptive_cost_model = true;
  QueryDaemon daemon(&catalog_, &backend, options);
  ASSERT_EQ(daemon.Submit(QueryRequest("q1", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    ASSERT_NE(daemon.stats()->Find("B"), nullptr);
    ASSERT_NE(daemon.stats()->Find("L"), nullptr);
  }

  ServiceRequest invalidate;
  invalidate.op = ServiceRequest::Op::kInvalidate;
  invalidate.relation = "B";
  ServiceResponse scoped = daemon.Submit(invalidate);
  ASSERT_EQ(scoped.status, ServiceResponse::Status::kOk);
  EXPECT_NE(scoped.payload_json.find("\"stats_dropped\": "),
            std::string::npos);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    EXPECT_EQ(daemon.stats()->Find("B"), nullptr);  // re-priced from defaults
    EXPECT_NE(daemon.stats()->Find("L"), nullptr);  // untouched relation
  }

  // The next run re-observes B from scratch — fresh post-change stats.
  ASSERT_EQ(daemon.Submit(QueryRequest("q2", "alice", join_query_)).status,
            ServiceResponse::Status::kOk);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    EXPECT_NE(daemon.stats()->Find("B"), nullptr);
  }

  // Relation-less invalidate forgets everything.
  invalidate.relation.clear();
  ASSERT_EQ(daemon.Submit(invalidate).status, ServiceResponse::Status::kOk);
  {
    std::lock_guard<std::mutex> lock(*daemon.stats_mu());
    EXPECT_TRUE(daemon.stats()->empty());
  }
}

TEST_F(DaemonTest, StandingQueriesAreMaintainedByDeltaOps) {
  Database db = db_;  // the daemon moves this instance under delta ops
  DatabaseSource backend(&db, &catalog_);
  QueryDaemon::Options options;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  ServiceRequest standing = QueryRequest("s1", "alice", join_query_);
  standing.standing = true;
  ServiceResponse registered = daemon.Submit(standing);
  ASSERT_EQ(registered.status, ServiceResponse::Status::kOk)
      << registered.error;
  EXPECT_EQ(daemon.standing_count(), 1u);

  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.tenant = "alice";
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("a"), Term::Constant("x2")}};
  ServiceResponse applied = daemon.Submit(delta);
  ASSERT_EQ(applied.status, ServiceResponse::Status::kOk) << applied.error;
  EXPECT_NE(applied.payload_json.find("\"inserted\": 1"), std::string::npos);
  EXPECT_NE(applied.payload_json.find("\"standing_updated\": 1"),
            std::string::npos);
  EXPECT_TRUE(db.Contains("B", {Term::Constant("a"), Term::Constant("x2")}));

  ServiceRequest answers;
  answers.op = ServiceRequest::Op::kAnswers;
  answers.tenant = "alice";
  answers.id = "s1";
  ServiceResponse maintained = daemon.Submit(answers);
  ASSERT_EQ(maintained.status, ServiceResponse::Status::kOk)
      << maintained.error;
  EXPECT_EQ(maintained.under.size(), 3u);
  EXPECT_EQ(maintained.under.count(
                {Term::Constant("a"), Term::Constant("x2")}),
            1u);

  // Deleting a scan-side tuple kills its derivations.
  delta.insert_tuples.clear();
  delta.relation = "L";
  delta.delete_tuples = {{Term::Constant("a")}};
  ASSERT_EQ(daemon.Submit(delta).status, ServiceResponse::Status::kOk);
  maintained = daemon.Submit(answers);
  ASSERT_EQ(maintained.status, ServiceResponse::Status::kOk);
  EXPECT_EQ(maintained.under,
            std::set<Tuple>({{Term::Constant("b"), Term::Constant("y")}}));

  // A delta restating the current instance is a no-op: nothing effective,
  // no maintenance work.
  delta.delete_tuples = {{Term::Constant("zzz")}};
  ServiceResponse noop = daemon.Submit(delta);
  ASSERT_EQ(noop.status, ServiceResponse::Status::kOk);
  EXPECT_NE(noop.payload_json.find("\"inserted\": 0"), std::string::npos);
  EXPECT_NE(noop.payload_json.find("\"standing_updated\": 0"),
            std::string::npos);

  // Standing registrations are tenant-scoped.
  answers.tenant = "bob";
  ServiceResponse missing = daemon.Submit(answers);
  EXPECT_EQ(missing.status, ServiceResponse::Status::kError);
  EXPECT_NE(missing.error.find("no standing query"), std::string::npos);
}

TEST_F(DaemonTest, DeltaOpValidation) {
  // Without an attached mutable database, delta ops are refused.
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon detached(&catalog_, &backend, {});
  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("a"), Term::Constant("x2")}};
  ServiceResponse refused = detached.Submit(delta);
  EXPECT_EQ(refused.status, ServiceResponse::Status::kError);
  EXPECT_NE(refused.error.find("no mutable database"), std::string::npos);

  Database db = db_;
  QueryDaemon::Options options;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  delta.relation = "Nope";
  ServiceResponse unknown = daemon.Submit(delta);
  EXPECT_EQ(unknown.status, ServiceResponse::Status::kError);
  EXPECT_NE(unknown.error.find("unknown relation"), std::string::npos);

  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("just-one")}};
  ServiceResponse arity = daemon.Submit(delta);
  EXPECT_EQ(arity.status, ServiceResponse::Status::kError);
  EXPECT_NE(arity.error.find("arity mismatch"), std::string::npos);
  // The database was never touched by the rejected batches.
  EXPECT_EQ(db.TotalTuples(), db_.TotalTuples());
}

// The `stats` op's "prepared" object: {"entries", "hits", "misses"}.
struct PreparedCounts {
  std::uint64_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

PreparedCounts PreparedStats(QueryDaemon& daemon) {
  ServiceRequest stats;
  stats.op = ServiceRequest::Op::kStats;
  const ServiceResponse response = daemon.Submit(stats);
  std::string error;
  std::optional<JsonValue> json = ParseJson(response.payload_json, &error);
  EXPECT_TRUE(json.has_value()) << error;
  const JsonValue* prepared = json ? json->Find("prepared") : nullptr;
  EXPECT_NE(prepared, nullptr) << response.payload_json;
  if (prepared == nullptr) return {};
  return PreparedCounts{
      static_cast<std::uint64_t>(prepared->GetNumber("entries", -1)),
      static_cast<std::uint64_t>(prepared->GetNumber("hits", -1)),
      static_cast<std::uint64_t>(prepared->GetNumber("misses", -1))};
}

std::string QueryLine(const std::string& id, const std::string& query) {
  return R"({"op": "query", "id": ")" + id + R"(", "query": )" +
         JsonQuote(query) + "}";
}

TEST_F(DaemonTest, PreparedQueryRepeatGivesTheIdenticalLine) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.adaptive_cost_model = true;
  QueryDaemon daemon(&catalog_, &backend, options);
  const std::string line = QueryLine("q1", join_query_);

  const std::string first = daemon.SubmitLine(line);
  // Drop the cached calls and the observed stats, so the repeat runs
  // exactly as cold as the first request did — only the prepared entry
  // is warm.
  daemon.SubmitLine(R"({"op": "invalidate"})");
  const std::string second = daemon.SubmitLine(line);
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_EQ(first, second);

  const PreparedCounts counts = PreparedStats(daemon);
  EXPECT_EQ(counts.entries, 1u);
  EXPECT_EQ(counts.misses, 1u);  // PLAN* ran once for the text
  EXPECT_EQ(counts.hits, 1u);
}

TEST_F(DaemonTest, PreparedErrorsKeepTheirExactText) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  for (const std::string& text :
       {std::string("Q(x) :- L(x"), std::string("Q(x) :- Missing(x).")}) {
    const ServiceResponse first = daemon.Submit(QueryRequest("e", "t", text));
    const ServiceResponse again = daemon.Submit(QueryRequest("e", "t", text));
    ASSERT_EQ(first.status, ServiceResponse::Status::kError);
    EXPECT_EQ(again.status, ServiceResponse::Status::kError);
    EXPECT_EQ(again.error, first.error);
    EXPECT_EQ(again.ToJsonLine(), first.ToJsonLine());
  }
  // The texts' own diagnoses, prefixed as before preparation was cached.
  const ServiceResponse parse =
      daemon.Submit(QueryRequest("e", "t", "Q(x) :- L(x"));
  EXPECT_EQ(parse.error.rfind("query error: ", 0), 0u) << parse.error;
  const ServiceResponse schema =
      daemon.Submit(QueryRequest("e", "t", "Q(x) :- Missing(x)."));
  EXPECT_EQ(schema.error.rfind("schema mismatch: ", 0), 0u) << schema.error;

  const PreparedCounts counts = PreparedStats(daemon);
  EXPECT_EQ(counts.misses, 2u);
  EXPECT_EQ(counts.hits, 4u);
}

TEST_F(DaemonTest, PreparedCacheStaysBounded) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  const std::size_t texts = PreparedQueryCache::kMaxEntries + 50;
  for (std::size_t i = 0; i < texts; ++i) {
    // Distinct texts, one plan: only the variable name differs.
    std::string v = "x";
    v += std::to_string(i);
    const ServiceResponse r = daemon.Submit(QueryRequest(
        "b", "t", std::string("Q(") + v + ") :- L(" + v + ")."));
    ASSERT_EQ(r.status, ServiceResponse::Status::kOk) << r.error;
    ASSERT_EQ(r.under.size(), 2u);
  }
  const PreparedCounts counts = PreparedStats(daemon);
  EXPECT_LE(counts.entries, PreparedQueryCache::kMaxEntries);
  EXPECT_GT(counts.entries, 0u);
  EXPECT_EQ(counts.misses, texts);
  EXPECT_EQ(counts.hits, 0u);
}

TEST_F(DaemonTest, ConcurrentSubmittersOfOneTextShareItsPreparedEntry) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon::Options options;
  options.adaptive_cost_model = true;
  QueryDaemon daemon(&catalog_, &backend, options);
  const ServiceResponse reference =
      daemon.Submit(QueryRequest("r", "ref", join_query_));
  ASSERT_EQ(reference.status, ServiceResponse::Status::kOk);

  constexpr int kThreads = 4;
  constexpr int kRequests = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const ServiceResponse r = daemon.Submit(
            QueryRequest("c", "tenant" + std::to_string(t), join_query_));
        if (r.status != ServiceResponse::Status::kOk ||
            r.under != reference.under || r.over != reference.over ||
            r.complete != reference.complete) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const PreparedCounts counts = PreparedStats(daemon);
  EXPECT_EQ(counts.entries, 1u);
  // The reference request prepared the text; every threaded one hit.
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, static_cast<std::uint64_t>(kThreads * kRequests));
}

TEST_F(DaemonTest, PreparedPlansAreDataIndependent) {
  Database db = db_;
  DatabaseSource backend(&db, &catalog_);
  QueryDaemon::Options options;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  const ServiceResponse before =
      daemon.Submit(QueryRequest("q1", "alice", join_query_));
  ASSERT_EQ(before.status, ServiceResponse::Status::kOk) << before.error;
  EXPECT_EQ(before.under.size(), 2u);

  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("a"), Term::Constant("x2")}};
  ASSERT_EQ(daemon.Submit(delta).status, ServiceResponse::Status::kOk);

  // Same text, same prepared plans, new data: the answer moves with it.
  const ServiceResponse after =
      daemon.Submit(QueryRequest("q1", "alice", join_query_));
  ASSERT_EQ(after.status, ServiceResponse::Status::kOk) << after.error;
  EXPECT_EQ(after.under.size(), 3u);
  EXPECT_EQ(after.under.count({Term::Constant("a"), Term::Constant("x2")}),
            1u);
  const PreparedCounts counts = PreparedStats(daemon);
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, 1u);
}

TEST_F(DaemonTest, StandingRegistrationMaintainsTheParsedQuery) {
  // Registration builds the standing query straight from the parsed text
  // (no Compile pass); its maintained answers must track what a fresh
  // run of the same text returns.
  Database db = db_;
  DatabaseSource backend(&db, &catalog_);
  QueryDaemon::Options options;
  options.database = &db;
  QueryDaemon daemon(&catalog_, &backend, options);

  ServiceRequest standing = QueryRequest("s1", "alice", join_query_);
  standing.standing = true;
  ASSERT_EQ(daemon.Submit(standing).status, ServiceResponse::Status::kOk);
  ASSERT_EQ(daemon.standing_count(), 1u);

  ServiceRequest delta;
  delta.op = ServiceRequest::Op::kDelta;
  delta.relation = "L";
  delta.insert_tuples = {{Term::Constant("c")}};
  delta.delete_tuples = {{Term::Constant("a")}};
  ASSERT_EQ(daemon.Submit(delta).status, ServiceResponse::Status::kOk);
  delta.relation = "B";
  delta.insert_tuples = {{Term::Constant("c"), Term::Constant("z")}};
  delta.delete_tuples.clear();
  ASSERT_EQ(daemon.Submit(delta).status, ServiceResponse::Status::kOk);

  ServiceRequest answers;
  answers.op = ServiceRequest::Op::kAnswers;
  answers.tenant = "alice";
  answers.id = "s1";
  const ServiceResponse maintained = daemon.Submit(answers);
  ASSERT_EQ(maintained.status, ServiceResponse::Status::kOk)
      << maintained.error;
  const ServiceResponse fresh =
      daemon.Submit(QueryRequest("f", "bob", join_query_));
  ASSERT_EQ(fresh.status, ServiceResponse::Status::kOk) << fresh.error;
  EXPECT_EQ(maintained.under, fresh.under);
  EXPECT_EQ(maintained.over, fresh.over);
  EXPECT_EQ(fresh.under,
            std::set<Tuple>({{Term::Constant("b"), Term::Constant("y")},
                             {Term::Constant("c"), Term::Constant("z")}}));
}

TEST_F(DaemonTest, StatsOpReportsThePreparedCache) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  EXPECT_NE(daemon.StatusJson().find(
                R"("prepared": {"entries": 0, "hits": 0, "misses": 0})"),
            std::string::npos)
      << daemon.StatusJson();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(daemon.Submit(QueryRequest("q", "alice", join_query_)).status,
              ServiceResponse::Status::kOk);
  }
  ASSERT_EQ(daemon.Submit(QueryRequest("q", "alice", "Q(x) :- L(x).")).status,
            ServiceResponse::Status::kOk);
  const PreparedCounts counts = PreparedStats(daemon);
  EXPECT_EQ(counts.entries, 2u);
  EXPECT_EQ(counts.hits, 2u);
  EXPECT_EQ(counts.misses, 2u);
}

// A request line padded with JSON whitespace to exactly `bytes` bytes.
std::string PaddedQueryLine(const std::string& id, std::size_t bytes) {
  const std::string body =
      R"("id": ")" + id + R"(", "query": "Q(x, y) :- L(x), B(x, y)."})";
  return "{" + std::string(bytes - 1 - body.size(), ' ') + body;
}

TEST_F(DaemonTest, StdioCapsRequestLinesAndServesTheNextOne) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  std::istringstream in(PaddedQueryLine("edge", kMaxRequestLineBytes) + "\n" +
                        std::string(kMaxRequestLineBytes + 1, 'x') + "\n" +
                        R"({"id": "next", "query": "Q(x) :- L(x)."})" +
                        "\n\n" + std::string(kMaxRequestLineBytes + 1, 'y'));
  std::ostringstream out;
  ServeStream(&daemon, in, out);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << out.str();
  EXPECT_NE(lines[0].find(R"("id": "edge")"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(R"("status": "ok")"), std::string::npos);
  EXPECT_EQ(lines[1], OverlongLineResponse());
  EXPECT_NE(lines[1].find("request line longer than 1048576 bytes"),
            std::string::npos);
  EXPECT_NE(lines[2].find(R"("id": "next")"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find(R"("status": "ok")"), std::string::npos);
  // An over-long last line without its newline is refused the same way.
  EXPECT_EQ(lines[3], OverlongLineResponse());
}

// A client connection on the listener's socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { ::close(fd_); }

  bool connected() const { return connected_; }

  bool Send(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(fd_, text.data() + sent, text.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // The next response line, or nullopt at EOF.
  std::optional<std::string> ReadLine() {
    for (;;) {
      const std::size_t newline = pending_.find('\n');
      if (newline != std::string::npos) {
        std::string line = pending_.substr(0, newline);
        pending_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return std::nullopt;
      pending_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string pending_;
};

std::string SocketPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ucqnd-" + name + "-" + std::to_string(::getpid()) + ".sock"))
      .string();
}

bool WaitForNoConnections(SocketListener* listener) {
  for (int i = 0; i < 500; ++i) {
    if (listener->open_connections() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// Closed connections forget their fds before closing them, so Stop never
// shuts down a descriptor number the process has since reused.
TEST_F(DaemonTest, ListenerStopLeavesReusedDescriptorsAlone) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  SocketListener listener(&daemon);
  std::string error;
  ASSERT_TRUE(listener.Start(SocketPath("reuse"), &error)) << error;
  for (int i = 0; i < 4; ++i) {
    Client client(listener.path());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(R"({"id": "q", "query": "Q(x) :- L(x)."})"
                            "\n"));
    const std::optional<std::string> reply = client.ReadLine();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find(R"("status": "ok")"), std::string::npos) << *reply;
  }
  ASSERT_TRUE(WaitForNoConnections(&listener));

  // The freed numbers go to new sockets, which must survive Stop.
  std::vector<std::array<int, 2>> pairs(4);
  for (std::array<int, 2>& pair : pairs) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair.data()), 0);
  }
  listener.Stop();
  for (const std::array<int, 2>& pair : pairs) {
    char byte = 'p';
    EXPECT_EQ(::send(pair[0], &byte, 1, MSG_NOSIGNAL), 1);
    EXPECT_EQ(::read(pair[1], &byte, 1), 1);
    EXPECT_EQ(byte, 'p');
    ::close(pair[0]);
    ::close(pair[1]);
  }
}

// The accept loop joins the threads of closed connections, so serving
// connections one after another keeps O(1) threads until Stop.
TEST_F(DaemonTest, ListenerReapsFinishedConnectionThreads) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  SocketListener listener(&daemon);
  std::string error;
  ASSERT_TRUE(listener.Start(SocketPath("reap"), &error)) << error;
  for (int i = 0; i < 32; ++i) {
    {
      Client client(listener.path());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.Send(R"({"id": "q", "query": "Q(x) :- L(x)."})"
                              "\n"));
      ASSERT_TRUE(client.ReadLine().has_value());
    }
    ASSERT_TRUE(WaitForNoConnections(&listener));
  }
  EXPECT_LE(listener.connection_threads(), 2u);
  listener.Stop();
  EXPECT_EQ(listener.connection_threads(), 0u);
}

TEST_F(DaemonTest, ListenerCapsRequestLinesThenClosesTheConnection) {
  DatabaseSource backend(&db_, &catalog_);
  QueryDaemon daemon(&catalog_, &backend, {});
  SocketListener listener(&daemon);
  std::string error;
  ASSERT_TRUE(listener.Start(SocketPath("cap"), &error)) << error;

  Client edge(listener.path());
  ASSERT_TRUE(edge.connected());
  ASSERT_TRUE(edge.Send(PaddedQueryLine("edge", kMaxRequestLineBytes) + "\n"));
  std::optional<std::string> reply = edge.ReadLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find(R"("status": "ok")"), std::string::npos) << *reply;
  // The connection stays usable after a line at the cap.
  ASSERT_TRUE(edge.Send(R"({"id": "after", "query": "Q(x) :- L(x)."})"
                        "\n"));
  reply = edge.ReadLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find(R"("id": "after")"), std::string::npos) << *reply;

  // One byte over the cap, before any newline arrives: one error line,
  // then the connection is closed and the next request goes unread.
  Client over(listener.path());
  ASSERT_TRUE(over.connected());
  ASSERT_TRUE(over.Send(std::string(kMaxRequestLineBytes + 1, 'x')));
  reply = over.ReadLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, OverlongLineResponse());
  EXPECT_FALSE(over.ReadLine().has_value());

  // Other connections are unaffected.
  Client next(listener.path());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.Send(R"({"id": "next", "query": "Q(x) :- L(x)."})"
                        "\n"));
  reply = next.ReadLine();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find(R"("status": "ok")"), std::string::npos) << *reply;
  listener.Stop();
}

}  // namespace
}  // namespace ucqn
