#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

// The traced run's stand-in for QueryDaemon::SubmitLine. It replays the
// daemon's public-call sequence for a line — decode, admission, then for
// a query RunQuerySession's parse → covers → Compile → stats copy and
// estimates → SourceStack over the daemon's own shared_cache()/stats() →
// AnswerStar → Observe, for a delta RunDeltaOp's ApplyDelta →
// InvalidateDelta → StandingQuery::ApplyDeltas — and encodes the
// response, opening a span around every call. The per-request state the
// daemon keeps privately (standing queries, operator totals) lives here.

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "eval/delta.h"
#include "server/daemon.h"
#include "workloads.h"

namespace perfbench {

class Replica {
 public:
  explicit Replica(Instance* instance);
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  std::string SubmitLine(const std::string& line);

 private:
  struct Standing {
    ucqn::UnionQuery query;
    std::unique_ptr<ucqn::StandingQuery> standing;  // null = broken
    std::string error;
  };

  ucqn::ServiceResponse RunQuery(const ucqn::ServiceRequest& request);
  ucqn::ServiceResponse RunSession(const ucqn::ServiceRequest& request);
  void RegisterStanding(const ucqn::ServiceRequest& request,
                        ucqn::ServiceResponse* response);
  ucqn::ServiceResponse RunDelta(const ucqn::ServiceRequest& request);
  ucqn::ServiceResponse RunAnswers(const ucqn::ServiceRequest& request);
  ucqn::RuntimeOptions MaintenanceRuntime() const;

  Instance* instance_;
  ucqn::QueryDaemon* daemon_;
  // The daemon merges each session's operator counters into totals under
  // stats_mu(); the replica does the same work under the same lock.
  ucqn::RuntimeStats operator_totals_;
  std::mutex standing_mu_;
  std::map<std::string, Standing> standing_;  // keyed "tenant/id"
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
