#ifndef UCQN_EVAL_FRONTIER_H_
#define UCQN_EVAL_FRONTIER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/substitution.h"
#include "dict/term_dictionary.h"

namespace ucqn {

// Witness-count arithmetic: saturates at 2^64 - 1 instead of wrapping, so
// a count that passes every max_bindings bound stays past it.
inline std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum;
  return __builtin_add_overflow(a, b, &sum)
             ? std::numeric_limits<std::uint64_t>::max()
             : sum;
}
inline std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product;
  return __builtin_mul_overflow(a, b, &product)
             ? std::numeric_limits<std::uint64_t>::max()
             : product;
}

// The executor's live bindings in columnar form: one contiguous id
// column per bound variable, rows in derivation order. This is the
// id-encoded replacement for a vector<Substitution> on the hot path —
// extending the frontier through a literal's fetched tuples appends to
// flat uint32 columns instead of copying a hash map per binding: a join
// gathers every column once through a selection vector, and filtering
// through a negated literal compacts the columns through one.
//
// Each row carries a witness weight: how many derivations (reference-loop
// bindings) it stands for. The weights are empty — every row weight 1 —
// on the witness path (ExecuteForBindings), where row order is the
// paper's witness order (left-to-right derivation) and every operation
// here preserves it, which is what lets the operator DAG decode back to
// exactly the Substitution sequence the per-binding reference loop
// produces. On the head-projecting path (Execute) a join keeps only its
// live columns — the variables the head or a later literal reads — and
// merges rows that agree on them into the first occurrence, summing
// weights: the rows are then the first-occurrence subsequence of the
// projected witness rows, and TotalWeight() is still the reference
// loop's binding count, which pattern pricing and max_bindings read.
class ColumnarFrontier {
 public:
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

  // Starts as the unit frontier: one row binding no variables (the
  // empty substitution every execution begins from).
  ColumnarFrontier() = default;

  std::size_t rows() const { return rows_; }
  std::size_t width() const { return vars_.size(); }
  const std::vector<std::string>& vars() const { return vars_; }

  // The column bound to `var`, or kNoColumn.
  std::size_t ColumnOf(const std::string& var) const {
    auto it = var_index_.find(var);
    return it == var_index_.end() ? kNoColumn : it->second;
  }

  const std::vector<std::uint32_t>& Column(std::size_t c) const {
    return columns_[c];
  }
  std::vector<std::uint32_t>& MutableColumn(std::size_t c) {
    return columns_[c];
  }

  // Row `row`'s witness weight.
  std::uint64_t Weight(std::size_t row) const {
    return weights_.empty() ? 1 : weights_[row];
  }
  // Per-row weights, or empty when every row has weight 1.
  const std::vector<std::uint64_t>& weights() const { return weights_; }
  // Replaces the weights: one per row, or empty for all 1.
  void SetWeights(std::vector<std::uint64_t> weights) {
    weights_ = std::move(weights);
  }
  // The number of witnesses the rows stand for (saturating).
  std::uint64_t TotalWeight() const;

  // Appends an empty column for `var` (must be unbound) and returns its
  // index. The caller fills it to the row count it is building toward.
  std::size_t AddVar(const std::string& var);

  // Declares the row count after the caller has filled all columns to
  // exactly `rows` entries.
  void SetRows(std::size_t rows) { rows_ = rows; }

  // Keeps exactly the rows in `selection` (ascending row indices),
  // compacting every column and the weights in place. The anti-join
  // filter of a negated literal.
  void Retain(const std::vector<std::uint32_t>& selection);

  // A frontier over the same variables whose row i is row selection[i]
  // of this one (any order, repeats allowed): one gather per column and
  // one for the weights. The join's output before its new variables'
  // columns are appended.
  ColumnarFrontier Gather(const std::vector<std::uint32_t>& selection) const;
  // The same over only `columns` (indices into this frontier, in the
  // order the result's columns take): a projecting join's live columns.
  ColumnarFrontier Gather(const std::vector<std::uint32_t>& selection,
                          const std::vector<std::size_t>& columns) const;

  // Appends rows [begin, end) of `from`, which has the same variables,
  // with their weights.
  void AppendRows(const ColumnarFrontier& from, std::size_t begin,
                  std::size_t end);

  // Decodes row `row` back into the Substitution the reference-loop
  // executor would have built — the witness readout of the sink.
  Substitution DecodeRow(std::size_t row, const TermDictionary& dict) const;

  // All rows, in witness order.
  std::vector<Substitution> DecodeAll(const TermDictionary& dict) const;

 private:
  std::vector<std::string> vars_;
  std::unordered_map<std::string, std::size_t> var_index_;
  std::vector<std::vector<std::uint32_t>> columns_;
  std::vector<std::uint64_t> weights_;
  std::size_t rows_ = 1;
};

}  // namespace ucqn

#endif  // UCQN_EVAL_FRONTIER_H_
