#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The workloads, the instance each pass runs against (a QueryDaemon
// over a private copy of the generated database, behind the workload's
// fault plan on a SimulatedClock — the same wiring as ReplayWorkload),
// and the protocol lines a pass submits.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eval/database.h"
#include "eval/source.h"
#include "gen/workload.h"
#include "gen/workload_replay.h"
#include "runtime/clock.h"
#include "runtime/fault_injection.h"
#include "server/daemon.h"
#include "trace.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  // Instance and templates; the replay plan's seed is the run's --seed.
  ucqn::WorkloadGenOptions gen;
  // Daemon shape, passed verbatim to ReplayWorkload by the continuity
  // check (cost model, cache TTL and budget, retry attempts).
  ucqn::WorkloadReplayOptions replay;
  // Requests per measured pass.
  std::uint64_t requests = 0;
  // The pass is every template exactly once, in a seeded order, instead of
  // the replay plan's Zipf draws: a heavy-tailed template mix then costs
  // the same on every seed.
  bool shuffle_all = false;
  // The hottest templates, registered `"standing": true` at set-up.
  std::size_t standing = 0;
  // Set-up submits every template once, in index order, before the
  // seeded stream is measured.
  bool warmup_sweep = false;
};

// Null for an unknown name. `tiny` shrinks every size for the self-test.
std::optional<WorkloadDef> FindWorkload(const std::string& name,
                                        std::uint64_t seed, bool tiny);

// One generated workload rendered as protocol lines.
struct Script {
  ucqn::WorkloadSpec spec;
  // query_lines[r] is request r of the replay stream.
  std::vector<std::string> query_lines;
  // `delta` op lines submitted just before request r.
  std::map<std::uint64_t, std::vector<std::string>> delta_lines;
  // One line per template, index order (the warm-up sweep).
  std::vector<std::string> sweep_lines;
  // Standing registrations and, per standing query, its `answers` read
  // back and a fresh query of the same template.
  std::vector<std::string> standing_lines;
  std::vector<std::string> answers_lines;
  std::vector<std::string> fresh_lines;
};

Script MakeScript(const WorkloadDef& def);

// A daemon over a private database copy. With `traced`, TimingSources sit
// over FaultInjectingSource (runtime.transport) and over DatabaseSource
// (runtime.backend).
class Instance {
 public:
  Instance(const WorkloadDef& def, const ucqn::WorkloadSpec& spec,
           bool traced);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  ucqn::QueryDaemon& daemon() { return *daemon_; }
  ucqn::SimulatedClock& clock() { return clock_; }
  ucqn::Database& database() { return database_; }
  ucqn::Source* transport() { return transport_; }
  const ucqn::Catalog& catalog() const { return spec_.catalog; }

 private:
  const ucqn::WorkloadSpec& spec_;
  ucqn::SimulatedClock clock_;
  ucqn::Database database_;
  ucqn::DatabaseSource backend_;
  TimingSource backend_timer_;
  ucqn::FaultInjectingSource faulty_;
  TimingSource transport_timer_;
  ucqn::Source* transport_;
  std::unique_ptr<ucqn::QueryDaemon> daemon_;
};

// Submits one line and returns the response line: the daemon's
// SubmitLine, or the traced replica.
using Submitter = std::function<std::string(const std::string& line,
                                            std::uint64_t request_id,
                                            bool write)>;

// What one pass over a script's stream measured.
struct PassResult {
  std::vector<double> latency_us;   // query lines, real clock
  std::vector<double> write_us;     // delta lines, real clock
  std::vector<std::uint64_t> sim_us;  // query lines, simulated clock
  std::uint64_t attempted = 0;      // query + delta lines
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  // error/shed/quota/draining + failed deltas
  std::uint64_t physical_calls = 0;  // over ok queries
  std::uint64_t answers_hash = 0;
  double seconds = 0.0;
  std::string error;  // a malformed response line
};

// Streams the script's query lines, each request's delta lines ahead of
// it, through `submit` from one closed-loop client: the next line goes out
// only after the previous reply is back. `clock` is read around each
// query for sim_us.
PassResult RunPass(const Script& script, const Submitter& submit,
                   ucqn::SimulatedClock* clock);

// The replay digest's per-response term (ReplayWorkload's ResponseHash):
// FNV over the request index and the under/over tuples.
std::uint64_t ResponseHash(std::uint64_t request_index,
                           const ucqn::ServiceResponse& response);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
