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

// A source-literal operator of the DAG (AccessScan / HashJoin / Filter /
// HashAntiJoin — the kind is a lowering-time classification; all four
// share one fetch-and-merge core). Push-based with an explicit seam:
// Stage(morsel) chooses the access pattern (first morsel only;
// live_bindings = that morsel's rows) and builds the deduplicated wave;
// the driver fetches; Absorb(wave, results) merges into the output
// morsel.
//
// Not thread-safe; one instance belongs to one execution's chain.
class FetchOperator {
 public:
  // None of the pointers are owned; all must outlive the operator.
  FetchOperator(OperatorKind kind, const Literal* literal,
                const Catalog* catalog, const CostModel* model,
                OperatorCounters* counters)
      : kind_(kind),
        literal_(literal),
        catalog_(catalog),
        model_(model),
        counters_(counters) {}

  OperatorKind kind() const { return kind_; }
  const Literal& literal() const { return *literal_; }
  // Set by the first successful Stage.
  const std::optional<AccessPattern>& pattern() const { return pattern_; }
  // Cumulative output rows across all absorbed morsels — the DAG's
  // reading of the per-literal frontier size, which max_bindings bounds.
  std::size_t rows_out() const { return rows_out_; }
  const std::string& error() const { return error_; }

  // Classifies slots and chooses the pattern on first contact, then
  // builds `morsel`'s deduplicated wave. False on failure (error()).
  bool Stage(ColumnarFrontier&& morsel, PendingWave* wave);

  // Merges one fetched wave into `out` (join kinds append matched rows
  // column-wise; the anti-join retains non-members), preserving row
  // order. False on failure (a failed fetch, reported in request order).
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
  bool Fail(std::string error) {
    error_ = std::move(error);
    return false;
  }
  // Encodes the fetched tuples request by request into `tuples_`
  // (arity ids each), dropping those no unification could accept: wrong
  // arity or not ground. With `agree`, also drops those that disagree
  // with a constant, a repeated variable, or the request's own input
  // values. tuple_end_[f] closes request f's range.
  void EncodeTuples(const std::vector<FetchResult>& fetched,
                    const std::vector<std::uint32_t>& keys, bool agree);
  // The positive-literal kernel: (row, tuple) pairs in row order x fetch
  // order into the selection vectors, then one gather per column.
  void Join(const ColumnarFrontier& frontier,
            const std::vector<std::uint32_t>& slot_of, ColumnarFrontier* out);
  // The negated-literal kernel: keeps the rows whose instantiation is
  // not among their request's tuples.
  void AntiJoin(const std::vector<std::uint32_t>& slot_of,
                ColumnarFrontier* frontier);

  OperatorKind kind_;
  const Literal* literal_;
  const Catalog* catalog_;
  const CostModel* model_;
  OperatorCounters* counters_;

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
  // A request before its input-slot values: constants at constant input
  // slots, empty elsewhere.
  std::vector<std::optional<Term>> request_template_;
  std::size_t rows_out_ = 0;
  std::string error_;

  // Kernel buffers, reused across morsels so steady state allocates
  // nothing per row.
  IdTable table_;
  std::vector<std::uint32_t> key_;
  std::vector<std::uint32_t> tuples_;
  std::vector<std::size_t> tuple_end_;
  std::vector<std::uint32_t> sel_rows_;
  std::vector<std::uint32_t> sel_tuples_;
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
  // in witness order.
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
