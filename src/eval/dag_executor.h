#ifndef UCQN_EVAL_DAG_EXECUTOR_H_
#define UCQN_EVAL_DAG_EXECUTOR_H_

#include <string>
#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "eval/executor.h"
#include "eval/op/operator.h"
#include "eval/op/operators.h"
#include "eval/source.h"
#include "runtime/clock.h"
#include "schema/catalog.h"

namespace ucqn {

// Result of driving a set of disjunct chains through the operator DAG:
// either every chain ran to completion (ok, one binding vector per
// disjunct in input order, each in witness order), or some operator
// failed and the whole execution aborted with its error — no partial
// answers, matching the reference loop's contract.
struct UnionChainsResult {
  bool ok = false;
  std::string error;
  std::vector<std::vector<Substitution>> bindings;
};

// The same drive before any decoding: one Materialize sink per disjunct
// in input order, holding its surviving id morsels in witness order (or
// none when !ok). Execute projects heads straight from these.
struct ChainSinks {
  bool ok = false;
  std::string error;
  std::vector<MaterializeOp> sinks;
};

// The push-based DAG driver — the one batch executor. Lowers each
// disjunct into a chain of fetch operators over ColumnarFrontier morsels
// (eval/op/) feeding a Materialize sink, each operator fed by a FIFO
// morsel queue, then drives all chains in rounds. One round rule covers
// both scheduling knobs:
//
//   - Lanes: the first ExecutionOptions::disjunct_concurrency chains with
//     pending work (ascending disjunct order) each stage up to
//     RuntimeOptions::pipeline_depth of their deepest non-empty stages,
//     in ascending stage order. At the defaults (1, 1) this is one wave
//     at a time, chain 0 to completion before chain 1 starts.
//   - Chunks: a lane stages the front morsel of its queue whole, except
//     under pipelining (depth > 1), where it takes exactly
//     min(max(1, parallelism), queued rows) rows, coalescing queued
//     morsels in FIFO order.
//   - Issue: a single-lane round issues its wave synchronously
//     (FetchBatch); a multi-lane round issues every wave as
//     FetchBatchAsync and resolves them inside one clock overlap bracket,
//     so a SimulatedClock charges the round max-over-lanes.
//   - Merge: lanes absorb in issue order; each output morsel is appended
//     to the next stage's queue, so rows reach every operator — and the
//     sink — in the left-to-right derivation order whatever the knobs.
//
// All staging, fetching, and merging happens on the calling thread —
// concurrency is overlap of waves in flight, not executor threads — so
// answers and witness order are independent of every knob. Rounds with a
// chain of >= 2 literals under pipelining count as pipeline rounds (and
// as overlaps when >= 2 lanes ran, whether the lanes are one chain's
// stages or several chains') in `counters`.
//
// `disjuncts` must be non-empty; empty-body disjuncts yield their single
// empty binding (callers handle ground-head projection). `model` prices
// every pattern decision. `clock` may be null (no overlap accounting).
// `source` is the effective source — any runtime stack has already been
// interposed by the caller.
ChainSinks RunChainsDag(const std::vector<const ConjunctiveQuery*>& disjuncts,
                        const Catalog& catalog, Source* source,
                        const ExecutionOptions& options,
                        const CostModel& model, Clock* clock,
                        OperatorCounters* counters);

// RunChainsDag with each sink read out as Substitutions (witness order).
UnionChainsResult ExecuteChainsDag(
    const std::vector<const ConjunctiveQuery*>& disjuncts,
    const Catalog& catalog, Source* source, const ExecutionOptions& options,
    const CostModel& model, Clock* clock, OperatorCounters* counters);

}  // namespace ucqn

#endif  // UCQN_EVAL_DAG_EXECUTOR_H_
