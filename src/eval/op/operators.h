#ifndef UCQN_EVAL_OP_OPERATORS_H_
#define UCQN_EVAL_OP_OPERATORS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"
#include "cost/cost_model.h"
#include "dict/term_dictionary.h"
#include "eval/frontier.h"
#include "eval/op/id_table.h"
#include "eval/op/operator.h"
#include "eval/source.h"
#include "schema/catalog.h"

namespace ucqn {

// One staged (not yet fetched) wave of a fetch operator for one input
// morsel: the deduplicated requests (first-occurrence order — the order
// every runtime ledger is keyed on) plus the row -> request mapping the
// merge needs back. The driver owns the transport call between Stage and
// Absorb, which is what lets several disjuncts' waves resolve inside one
// clock overlap bracket.
struct PendingWave {
  ColumnarFrontier morsel;
  std::vector<std::vector<std::optional<Term>>> requests;
  std::vector<std::uint32_t> slot_of;  // row -> index into `requests`
  // Per request, the frontier ids of its input slots (the operator's
  // input-slot order), flat.
  std::vector<std::uint32_t> keys;
};

// The fetch kernels' scratch buffers. Each is used only within one Stage
// or Absorb call, so every operator of a drive shares one set (RunChainsDag
// owns it), and the buffers grow to the largest wave and stay: steady
// state allocates nothing per row or per operator.
struct KernelScratch {
  // Wave dedup, tuple merge, the join's filter build, the anti-join build.
  IdTable table;
  IdTable row_table;  // a projecting join's output-row merge
  std::vector<std::uint32_t> key;
  std::vector<std::uint32_t> row_key;
  std::vector<std::uint32_t> tuples;  // kept fetched tuples, arity ids each
  std::vector<std::uint64_t> tuple_weight;  // per kept tuple, when merging
  std::vector<std::size_t> tuple_end;       // per request: end of its range
  std::vector<std::uint32_t> sel_rows;
  std::vector<std::uint32_t> sel_tuples;
  std::vector<std::uint64_t> sel_weights;  // per selected pair, projecting
};

// A source-literal operator of the DAG (AccessScan / HashJoin / Filter /
// HashAntiJoin — the kind is a lowering-time classification; all four
// share one fetch-and-merge core). Push-based with an explicit seam:
// Stage(morsel) chooses the access pattern (first morsel only;
// live_bindings = that morsel's witness count) and builds the
// deduplicated wave; the driver fetches; Absorb(wave, results) merges
// into the output morsel.
//
// A projecting operator (the head-projecting Execute path) also decides
// once, in Prepare, which frontier columns and new variables the head or
// a later literal reads. Its join keeps only those live columns and
// merges rows that agree on them under summed witness weights (see
// eval/frontier.h); every wave it stages is still the one the
// non-projecting operator would stage at a whole-frontier schedule,
// because merging keeps the first occurrence of every live-column value.
//
// Not thread-safe; one instance belongs to one execution's chain.
class FetchOperator {
 public:
  // Runs body literal `index` of `disjunct`; `project` drops what
  // neither the head nor a later literal reads. None of the pointers are
  // owned; all must outlive the operator.
  FetchOperator(OperatorKind kind, const ConjunctiveQuery* disjunct,
                std::size_t index, bool project, const Catalog* catalog,
                const CostModel* model, OperatorCounters* counters,
                KernelScratch* scratch)
      : kind_(kind),
        disjunct_(disjunct),
        index_(index),
        literal_(&disjunct->body()[index]),
        project_(project),
        catalog_(catalog),
        model_(model),
        counters_(counters),
        scratch_(scratch) {}

  OperatorKind kind() const { return kind_; }
  const Literal& literal() const { return *literal_; }
  // Set by the first successful Stage.
  const std::optional<AccessPattern>& pattern() const { return pattern_; }
  // Cumulative output witnesses (row weights, saturating) across all
  // absorbed morsels — the DAG's reading of the per-literal frontier
  // size, which max_bindings bounds.
  std::uint64_t rows_out() const { return rows_out_; }
  const std::string& error() const { return error_; }

  // Classifies slots and chooses the pattern on first contact, then
  // builds `morsel`'s deduplicated wave. False on failure (error()).
  bool Stage(ColumnarFrontier&& morsel, PendingWave* wave);

  // Merges one fetched wave into `out` (join kinds append matched rows
  // column-wise; the anti-join retains non-members), preserving row
  // order (first occurrences, when projecting). False on failure (a
  // failed fetch, reported in request order).
  bool Absorb(PendingWave&& wave, std::vector<FetchResult> fetched,
              ColumnarFrontier* out);

 private:
  // How each argument position of the literal maps onto the frontier.
  enum class Slot { kConst, kColumn, kBindFirst, kBindRepeat };
  struct SlotPlan {
    Slot kind = Slot::kConst;
    std::uint32_t id = 0;    // kConst: the ground value's id
    std::size_t column = 0;  // kColumn: frontier column of the variable
    std::size_t first = 0;   // kBindRepeat: slot of the first occurrence
  };

  bool Prepare(const ColumnarFrontier& frontier);
  // Whether the head or a body literal after this one reads `var`.
  bool ReadDownstream(const std::string& var) const;
  bool Fail(std::string error) {
    error_ = std::move(error);
    return false;
  }
  // Encodes the fetched tuples request by request into scratch_->tuples
  // (arity ids each), dropping those no unification could accept: wrong
  // arity or not ground. With `agree`, also drops those that disagree
  // with a constant, a repeated variable, or the request's own input
  // values. With `merge`, keeps only the first of the request's tuples
  // that agree on the filter slots and the live binder slots, counting
  // the rest into scratch_->tuple_weight. scratch_->tuple_end[f] closes
  // request f's range.
  void EncodeTuples(const std::vector<FetchResult>& fetched,
                    const std::vector<std::uint32_t>& keys, bool agree,
                    bool merge);
  // The positive-literal kernel: (row, tuple) pairs in row order x fetch
  // order into the selection vectors (merged on the live output columns
  // under summed weights when merge_rows_), then one gather per live
  // column. Consumes `frontier`'s weights.
  void Join(ColumnarFrontier* frontier,
            const std::vector<std::uint32_t>& slot_of, ColumnarFrontier* out);
  // The negated-literal kernel: keeps the rows whose instantiation is
  // not among their request's tuples.
  void AntiJoin(const std::vector<std::uint32_t>& slot_of,
                ColumnarFrontier* frontier);

  OperatorKind kind_;
  const ConjunctiveQuery* disjunct_;
  std::size_t index_;
  const Literal* literal_;
  bool project_;
  const Catalog* catalog_;
  const CostModel* model_;
  OperatorCounters* counters_;
  KernelScratch* scratch_;

  bool prepared_ = false;
  std::optional<AccessPattern> pattern_;
  std::vector<SlotPlan> plan_;
  std::vector<std::size_t> binder_slots_;  // slots introducing new vars
  bool binds_new_ = false;
  // Input slots read from the frontier (the wave's dedup key, in slot
  // order), and bound variables at output slots (the join's probe key
  // after the request). Set by Prepare.
  std::vector<std::size_t> input_slots_;
  std::vector<std::size_t> filter_slots_;
  // What the join's output keeps: the frontier columns (in column order)
  // and the binder slots whose variables are read downstream — all of
  // them unless projecting. When projecting, a request's tuples merge
  // when a binder dies (merge_tuples_), and output rows merge on these
  // when an input column dies (merge_rows_).
  std::vector<std::size_t> live_columns_;
  std::vector<std::size_t> live_binders_;
  bool merge_tuples_ = false;
  bool merge_rows_ = false;
  // A request before its input-slot values: constants at constant input
  // slots, empty elsewhere.
  std::vector<std::optional<Term>> request_template_;
  std::uint64_t rows_out_ = 0;
  std::string error_;
};

// The chain sink: owns the surviving morsels (moved in, in push =
// derivation = witness order) and reads them out two ways — as
// Substitutions for the witness API, or projected through a head
// straight from the id columns, decoding each distinct answer once.
class MaterializeOp {
 public:
  void Push(ColumnarFrontier&& morsel) {
    rows_ += morsel.rows();
    morsels_.push_back(std::move(morsel));
  }

  // Every row as the Substitution the reference loop would have built,
  // in witness order. Only meaningful after a non-projecting drive (every
  // row weight 1, every column kept).
  std::vector<Substitution> Bindings(const TermDictionary& dict) const;

  // Inserts the distinct projections of every row through `head` into
  // `answers`. False, inserting nothing, when some head variable is not
  // a column and at least one row exists (the head is not fully bound);
  // zero rows project to nothing and never fail.
  bool ProjectHead(const std::vector<Term>& head, const TermDictionary& dict,
                   std::set<Tuple>* answers) const;

 private:
  std::vector<ColumnarFrontier> morsels_;
  std::size_t rows_ = 0;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_OP_OPERATORS_H_
