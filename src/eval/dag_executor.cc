#include "eval/dag_executor.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "dict/term_dictionary.h"
#include "eval/frontier.h"
#include "eval/op/lowering.h"
#include "eval/op/operators.h"

namespace ucqn {

namespace {

// A zero-row morsel over `shape`'s variables, for rows to be appended to.
ColumnarFrontier EmptyLike(const ColumnarFrontier& shape) {
  ColumnarFrontier out;
  for (const std::string& var : shape.vars()) out.AddVar(var);
  out.SetRows(0);
  return out;
}

// Appends rows [begin, end) of `from` to `to` (same variables).
void AppendRows(const ColumnarFrontier& from, std::size_t begin,
                std::size_t end, ColumnarFrontier* to) {
  for (std::size_t c = 0; c < from.width(); ++c) {
    std::vector<std::uint32_t>& column = to->MutableColumn(c);
    column.insert(column.end(), from.Column(c).begin() + begin,
                  from.Column(c).begin() + end);
  }
  to->SetRows(to->rows() + (end - begin));
}

// One stage's FIFO of pending morsels. `head` rows of the front morsel
// have already been taken by pipelined chunks.
struct MorselQueue {
  std::deque<ColumnarFrontier> morsels;
  std::size_t head = 0;

  bool empty() const { return morsels.empty(); }

  // Appends `out`, split into chunks of at most `morsel_rows` rows (0 =
  // unsplit — the whole frontier is one morsel). Chunks keep row order,
  // so witness order survives splitting.
  void Push(ColumnarFrontier&& out, std::size_t morsel_rows) {
    if (morsel_rows == 0 || out.rows() <= morsel_rows) {
      morsels.push_back(std::move(out));
      return;
    }
    for (std::size_t start = 0; start < out.rows(); start += morsel_rows) {
      ColumnarFrontier chunk = EmptyLike(out);
      AppendRows(out, start, std::min(start + morsel_rows, out.rows()),
                 &chunk);
      morsels.push_back(std::move(chunk));
    }
  }

  // The next morsel to stage: the front morsel whole (`limit` 0), or
  // exactly min(limit, queued rows) rows coalesced in FIFO order.
  ColumnarFrontier Take(std::size_t limit) {
    if (limit == 0) {
      ColumnarFrontier front = std::move(morsels.front());
      morsels.pop_front();
      return front;
    }
    ColumnarFrontier out = EmptyLike(morsels.front());
    while (out.rows() < limit && !morsels.empty()) {
      const ColumnarFrontier& front = morsels.front();
      const std::size_t take =
          std::min(limit - out.rows(), front.rows() - head);
      AppendRows(front, head, head + take, &out);
      head += take;
      if (head == front.rows()) {
        morsels.pop_front();
        head = 0;
      }
    }
    return out;
  }
};

// One disjunct's compiled chain plus its execution state: a morsel queue
// in front of every fetch operator, and the sink. A chain is done when
// every queue has drained (all its morsels either died or were
// materialized).
struct Chain {
  std::vector<FetchOperator> ops;
  std::vector<MorselQueue> queues;
  MaterializeOp materialize;
  bool done = false;

  // Fills `stages` with up to `depth` of the deepest stages holding
  // pending rows, in ascending stage order (draining deep-first bounds
  // the rows parked mid-chain). Left empty when the chain has no work
  // left. The caller reuses one vector across rounds.
  void DeepestStages(std::size_t depth,
                     std::vector<std::size_t>* stages) const {
    stages->clear();
    for (std::size_t i = queues.size(); i-- > 0 && stages->size() < depth;) {
      if (!queues[i].empty()) stages->push_back(i);
    }
    std::reverse(stages->begin(), stages->end());
  }
};

}  // namespace

ChainSinks RunChainsDag(const std::vector<const ConjunctiveQuery*>& disjuncts,
                        const Catalog& catalog, Source* source,
                        const ExecutionOptions& options,
                        const CostModel& model, Clock* clock,
                        OperatorCounters* counters) {
  ChainSinks result;

  std::vector<Chain> chains(disjuncts.size());
  for (std::size_t d = 0; d < disjuncts.size(); ++d) {
    Chain& chain = chains[d];
    const std::vector<Literal>& body = disjuncts[d]->body();
    if (body.empty()) {
      // An empty body satisfies the one empty binding it started from.
      chain.materialize.Push(ColumnarFrontier());
      chain.done = true;
      ++counters->disjuncts_executed;
      continue;
    }
    std::vector<OperatorKind> kinds = LowerOperatorKinds(*disjuncts[d]);
    chain.ops.reserve(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
      chain.ops.emplace_back(kinds[i], &body[i], &catalog, &model, counters);
    }
    chain.queues.resize(body.size());
    // The unit frontier every plan seeds.
    chain.queues[0].Push(ColumnarFrontier(), 0);
  }

  const std::size_t concurrency =
      std::max<std::size_t>(options.disjunct_concurrency, 1);
  const std::size_t depth =
      std::max<std::size_t>(options.runtime.pipeline_depth, 1);
  const std::size_t chunk =
      depth > 1 ? std::max<std::size_t>(options.runtime.parallelism, 1) : 0;

  struct Lane {
    Chain* chain = nullptr;
    std::size_t stage = 0;
    PendingWave wave;
    FetchFuture future;
    std::vector<FetchResult> fetched;
  };

  std::vector<std::size_t> stages;
  while (true) {
    // Collect this round's lanes (see the round rule in the header).
    std::vector<Lane> lanes;
    std::size_t runnable = 0;
    bool pipelined = false;
    for (Chain& chain : chains) {
      if (runnable == concurrency) break;
      if (chain.done) continue;
      chain.DeepestStages(depth, &stages);
      if (stages.empty()) {
        chain.done = true;
        ++counters->disjuncts_executed;
        continue;
      }
      ++runnable;
      pipelined = pipelined || (depth > 1 && chain.ops.size() >= 2);
      for (std::size_t stage : stages) {
        Lane lane;
        lane.chain = &chain;
        lane.stage = stage;
        if (!chain.ops[stage].Stage(chain.queues[stage].Take(chunk),
                                    &lane.wave)) {
          ++counters->disjuncts_executed;
          result.error = chain.ops[stage].error();
          return result;
        }
        lanes.push_back(std::move(lane));
      }
    }
    if (lanes.empty()) break;
    if (pipelined) {
      ++counters->pipeline_rounds;
      if (lanes.size() >= 2) ++counters->pipeline_overlaps;
    }

    if (lanes.size() == 1) {
      // Synchronous wave: one FetchBatch, so at the defaults every
      // cache/retry/parallel ledger sees one wave per literal in order.
      Lane& lane = lanes.front();
      const FetchOperator& op = lane.chain->ops[lane.stage];
      lane.fetched = source->FetchBatch(op.literal().relation(),
                                        *op.pattern(), lane.wave.requests);
    } else {
      // Concurrent waves: issue in lane order, resolve all inside one
      // overlap bracket (see runtime/clock.h).
      for (Lane& lane : lanes) {
        const FetchOperator& op = lane.chain->ops[lane.stage];
        lane.future =
            source->FetchBatchAsync(op.literal().relation(), *op.pattern(),
                                    std::move(lane.wave.requests));
      }
      if (clock != nullptr) clock->BeginOverlap();
      for (Lane& lane : lanes) {
        if (clock != nullptr) clock->BeginLane();
        lane.fetched = lane.future.Take();
        if (clock != nullptr) clock->EndLane();
      }
      if (clock != nullptr) clock->EndOverlap();
    }

    // Merge in lane order; the first failing lane aborts the whole union
    // (no partial answers).
    for (Lane& lane : lanes) {
      Chain& chain = *lane.chain;
      FetchOperator& op = chain.ops[lane.stage];
      ColumnarFrontier out;
      if (!op.Absorb(std::move(lane.wave), std::move(lane.fetched), &out)) {
        ++counters->disjuncts_executed;
        result.error = op.error();
        return result;
      }
      if (options.max_bindings != 0 &&
          op.rows_out() > options.max_bindings) {
        ++counters->disjuncts_executed;
        result.error = "execution exceeded max_bindings (" +
                       std::to_string(options.max_bindings) +
                       ") at literal " + op.literal().ToString();
        return result;
      }
      // A dead morsel is simply not pushed downstream — later operators
      // never see it, never choose a pattern, never error, reproducing
      // the reference loop's break on an empty frontier.
      if (out.rows() == 0) continue;
      if (lane.stage + 1 == chain.ops.size()) {
        chain.materialize.Push(std::move(out));
      } else {
        chain.queues[lane.stage + 1].Push(std::move(out),
                                          options.morsel_rows);
      }
    }
  }

  result.ok = true;
  result.sinks.reserve(chains.size());
  for (Chain& chain : chains) {
    result.sinks.push_back(std::move(chain.materialize));
  }
  return result;
}

UnionChainsResult ExecuteChainsDag(
    const std::vector<const ConjunctiveQuery*>& disjuncts,
    const Catalog& catalog, Source* source, const ExecutionOptions& options,
    const CostModel& model, Clock* clock, OperatorCounters* counters) {
  ChainSinks run = RunChainsDag(disjuncts, catalog, source, options, model,
                                clock, counters);
  UnionChainsResult result;
  result.ok = run.ok;
  result.error = std::move(run.error);
  const TermDictionary& dict = TermDictionary::Global();
  for (const MaterializeOp& sink : run.sinks) {
    result.bindings.push_back(sink.Bindings(dict));
  }
  return result;
}

}  // namespace ucqn
