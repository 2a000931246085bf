#include "eval/frontier.h"

namespace ucqn {

std::uint64_t ColumnarFrontier::TotalWeight() const {
  if (weights_.empty()) return rows_;
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights_) total = SaturatingAdd(total, w);
  return total;
}

std::size_t ColumnarFrontier::AddVar(const std::string& var) {
  const std::size_t index = columns_.size();
  vars_.push_back(var);
  var_index_.emplace(var, index);
  columns_.emplace_back();
  return index;
}

void ColumnarFrontier::Retain(const std::vector<std::uint32_t>& selection) {
  for (std::vector<std::uint32_t>& column : columns_) {
    for (std::size_t i = 0; i < selection.size(); ++i) {
      column[i] = column[selection[i]];
    }
    column.resize(selection.size());
  }
  if (!weights_.empty()) {
    for (std::size_t i = 0; i < selection.size(); ++i) {
      weights_[i] = weights_[selection[i]];
    }
    weights_.resize(selection.size());
  }
  rows_ = selection.size();
}

ColumnarFrontier ColumnarFrontier::Gather(
    const std::vector<std::uint32_t>& selection) const {
  std::vector<std::size_t> all(columns_.size());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;
  return Gather(selection, all);
}

ColumnarFrontier ColumnarFrontier::Gather(
    const std::vector<std::uint32_t>& selection,
    const std::vector<std::size_t>& columns) const {
  ColumnarFrontier out;
  out.columns_.resize(columns.size());
  for (std::size_t k = 0; k < columns.size(); ++k) {
    out.vars_.push_back(vars_[columns[k]]);
    out.var_index_.emplace(vars_[columns[k]], k);
    const std::vector<std::uint32_t>& from = columns_[columns[k]];
    std::vector<std::uint32_t>& to = out.columns_[k];
    to.resize(selection.size());
    for (std::size_t i = 0; i < selection.size(); ++i) {
      to[i] = from[selection[i]];
    }
  }
  if (!weights_.empty()) {
    out.weights_.resize(selection.size());
    for (std::size_t i = 0; i < selection.size(); ++i) {
      out.weights_[i] = weights_[selection[i]];
    }
  }
  out.rows_ = selection.size();
  return out;
}

void ColumnarFrontier::AppendRows(const ColumnarFrontier& from,
                                  std::size_t begin, std::size_t end) {
  for (std::size_t c = 0; c < from.width(); ++c) {
    columns_[c].insert(columns_[c].end(), from.columns_[c].begin() + begin,
                       from.columns_[c].begin() + end);
  }
  if (!from.weights_.empty() || !weights_.empty()) {
    weights_.resize(rows_, 1);  // rows so far had implicit weight 1
    for (std::size_t r = begin; r < end; ++r) {
      weights_.push_back(from.Weight(r));
    }
  }
  rows_ += end - begin;
}

Substitution ColumnarFrontier::DecodeRow(std::size_t row,
                                         const TermDictionary& dict) const {
  Substitution binding;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    binding.Bind(Term::Variable(vars_[c]), dict.DecodeTerm(columns_[c][row]));
  }
  return binding;
}

std::vector<Substitution> ColumnarFrontier::DecodeAll(
    const TermDictionary& dict) const {
  std::vector<Substitution> out;
  out.reserve(rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    out.push_back(DecodeRow(row, dict));
  }
  return out;
}

}  // namespace ucqn
