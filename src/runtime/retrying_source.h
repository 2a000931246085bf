#ifndef UCQN_RUNTIME_RETRYING_SOURCE_H_
#define UCQN_RUNTIME_RETRYING_SOURCE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "eval/source.h"
#include "runtime/clock.h"

namespace ucqn {

// How a failed Fetch is retried: capped exponential backoff with
// multiplicative jitter. attempt k (1-based) sleeps
//   min(max_backoff, initial * multiplier^(k-1)) * (1 + U[0, jitter])
// before attempt k+1.
struct RetryPolicy {
  // Total attempts per Fetch, including the first. 1 disables retry.
  int max_attempts = 3;
  std::uint64_t initial_backoff_micros = 100;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_micros = 100 * 1000;
  // Fraction of the backoff randomized on top (0 = deterministic backoff).
  double jitter = 0.5;
  // Seed for the jitter PRNG — same seed, same schedule.
  std::uint64_t jitter_seed = 1;
};

// Per-query spending limits for a source stack. Exhaustion surfaces as
// FetchStatus::kBudgetExhausted, which the executor reports as a failed
// (not aborted) execution and which RetryingSource itself never retries.
struct CallBudget {
  // Maximum attempts against the wrapped source; 0 = unlimited.
  std::uint64_t max_calls = 0;
  // Maximum elapsed clock time since construction/ResetBudget, in
  // microseconds; 0 = no deadline. Backoff sleeps count against it.
  std::uint64_t deadline_micros = 0;
};

// Wraps a flaky source with retry/backoff and enforces a call/deadline
// budget. Transient errors are retried up to the policy's attempt limit;
// budget refusals are terminal for the query.
//
// FetchBatch retries sub-calls independently: a wave's failures are
// collected and re-batched together in the next retry round (so retries
// overlap just like first attempts), with one backoff sleep per round —
// the pending sub-calls back off together instead of serializing their
// individual sleeps. The call/deadline budget is one per-query total,
// debited per sub-call in request order under a lock, so the cap holds
// exactly at any batch size or parallelism.
class RetryingSource : public Source {
 public:
  struct RetryStats {
    std::uint64_t attempts = 0;   // calls forwarded to the wrapped source
    std::uint64_t retries = 0;    // attempts beyond the first, per Fetch
    std::uint64_t successes = 0;
    std::uint64_t giveups = 0;    // Fetches that exhausted max_attempts
    std::uint64_t budget_refusals = 0;
    std::uint64_t backoff_micros_total = 0;
  };

  // Does not take ownership of `inner` or `clock`; both must outlive the
  // adapter. With a null clock the source keeps its own virtual clock —
  // backoff then costs no real time but still counts against the deadline.
  RetryingSource(Source* inner, RetryPolicy policy = RetryPolicy{},
                 CallBudget budget = CallBudget{}, Clock* clock = nullptr);

  FetchResult Fetch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::optional<Term>>& inputs) override;

  std::vector<FetchResult> FetchBatch(
      const std::string& relation, const AccessPattern& pattern,
      const std::vector<std::vector<std::optional<Term>>>& inputs) override;

  const RetryStats& retry_stats() const { return stats_; }

  // Restarts the call/deadline accounting (a new query begins).
  void ResetBudget();

 private:
  // All Locked helpers require mu_ to be held.
  bool BudgetExceededLocked(std::string* why);
  // Backoff duration before attempt `attempt` + 1, jitter applied.
  std::uint64_t BackoffMicrosLocked(int attempt);
  // True when sleeping `backoff` would reach or cross the deadline — the
  // retry then cannot be admitted anyway, so the sleep is pure waste and
  // the caller fails the pending requests immediately instead. Always
  // false without a deadline.
  bool BackoffCrossesDeadlineLocked(std::uint64_t backoff);

  Source* inner_;
  RetryPolicy policy_;
  CallBudget budget_;
  SimulatedClock own_clock_;
  Clock* clock_;
  std::mutex mu_;
  // The jitter generator, seeded from policy_.jitter_seed on the first
  // jittered backoff: most stacks never back off, and seeding an
  // mt19937_64 costs more than the rest of the constructor.
  std::optional<std::mt19937_64> rng_;
  RetryStats stats_;
  std::uint64_t calls_used_ = 0;
  std::uint64_t budget_start_micros_ = 0;
};

}  // namespace ucqn

#endif  // UCQN_RUNTIME_RETRYING_SOURCE_H_
