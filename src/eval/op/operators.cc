#include "eval/op/operators.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace ucqn {

// The pattern decision and slot classification happen on first contact
// with the frontier — not at lowering time — so that (a) a literal no
// morsel ever reaches never errors, exactly like the reference loop's
// early-out on an empty frontier, and (b) an adaptive cost model prices
// the decision with the *actual* live-binding count, not the planner's
// estimate. The frontier's column set is fixed per chain stage, so one
// preparation serves every later morsel.
bool FetchOperator::Prepare(const ColumnarFrontier& frontier) {
  TermDictionary& dict = TermDictionary::Global();
  // The variables bound before this literal are exactly the frontier's
  // columns: positive literals add their new variables as columns, and
  // nothing else binds.
  BoundVariables bound(frontier.vars().begin(), frontier.vars().end());
  PlanContext context;
  context.live_bindings =
      static_cast<double>(std::max<std::size_t>(frontier.rows(), 1));
  pattern_ = ChoosePattern(*catalog_, *literal_, bound, *model_, context);
  if (!pattern_.has_value()) {
    return Fail("literal " + literal_->ToString() +
                " has no usable access pattern at its position");
  }

  // Classify each slot once; the per-row loops below are then pure
  // integer work.
  const std::vector<Term>& args = literal_->args();
  const std::size_t arity = args.size();
  plan_.assign(arity, SlotPlan{});
  request_template_.assign(arity, std::nullopt);
  std::unordered_map<std::string, std::size_t> first_occurrence;
  for (std::size_t j = 0; j < arity; ++j) {
    if (args[j].IsGround()) {
      plan_[j].kind = Slot::kConst;
      plan_[j].id = dict.EncodeGround(args[j]);
      if (pattern_->IsInputSlot(j)) {
        request_template_[j] = dict.DecodeTerm(plan_[j].id);
      }
      continue;
    }
    const std::size_t c = frontier.ColumnOf(args[j].name());
    if (c != ColumnarFrontier::kNoColumn) {
      plan_[j].kind = Slot::kColumn;
      plan_[j].column = c;
      (pattern_->IsInputSlot(j) ? input_slots_ : filter_slots_).push_back(j);
      continue;
    }
    auto [it, fresh] = first_occurrence.try_emplace(args[j].name(), j);
    if (fresh) {
      plan_[j].kind = Slot::kBindFirst;
      binder_slots_.push_back(j);
      binds_new_ = true;
    } else {
      plan_[j].kind = Slot::kBindRepeat;
      plan_[j].first = it->second;
    }
  }
  prepared_ = true;
  return true;
}

bool FetchOperator::Stage(ColumnarFrontier&& morsel, PendingWave* wave) {
  if (!prepared_ && !Prepare(morsel)) return false;
  ++counters_->morsels;
  TermDictionary& dict = TermDictionary::Global();

  // Dedup the rows on the frontier columns feeding input slots (the only
  // part of a call that varies by row): group ids come out in
  // first-occurrence order — the order every runtime ledger is keyed on.
  const std::size_t width = input_slots_.size();
  const std::size_t rows = morsel.rows();
  table_.Reset(width, rows);
  key_.resize(width);
  wave->slot_of.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < width; ++k) {
      key_[k] = morsel.Column(plan_[input_slots_[k]].column)[r];
    }
    bool fresh = false;
    wave->slot_of[r] = table_.FindOrAdd(key_.data(), &fresh);
  }

  // Only the distinct requests decode to Term vectors for the Source API.
  const std::size_t groups = table_.groups();
  wave->keys.clear();
  wave->requests.clear();
  wave->requests.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::uint32_t* key = table_.Key(g);
    wave->keys.insert(wave->keys.end(), key, key + width);
    std::vector<std::optional<Term>>& request =
        wave->requests.emplace_back(request_template_);
    for (std::size_t k = 0; k < width; ++k) {
      request[input_slots_[k]] = dict.DecodeTerm(key[k]);
    }
  }
  wave->morsel = std::move(morsel);
  return true;
}

void FetchOperator::EncodeTuples(const std::vector<FetchResult>& fetched,
                                 const std::vector<std::uint32_t>& keys,
                                 bool agree) {
  TermDictionary& dict = TermDictionary::Global();
  const std::size_t arity = literal_->args().size();
  const std::size_t width = input_slots_.size();
  std::size_t total = 0;
  for (const FetchResult& f : fetched) total += f.tuples.size();
  tuples_.clear();
  tuples_.reserve(total * arity);
  tuple_end_.clear();
  tuple_end_.reserve(fetched.size());
  std::size_t kept = 0;
  for (std::size_t f = 0; f < fetched.size(); ++f) {
    for (const Tuple& tuple : fetched[f].tuples) {
      if (tuple.size() != arity) continue;
      bool ok = true;
      for (const Term& term : tuple) ok = ok && term.IsGround();
      if (!ok) continue;
      const std::size_t base = tuples_.size();
      for (const Term& term : tuple) tuples_.push_back(dict.EncodeGround(term));
      const std::uint32_t* ids = tuples_.data() + base;
      for (std::size_t j = 0; j < arity && ok && agree; ++j) {
        if (plan_[j].kind == Slot::kConst) {
          ok = ids[j] == plan_[j].id;
        } else if (plan_[j].kind == Slot::kBindRepeat) {
          ok = ids[j] == ids[plan_[j].first];
        }
      }
      for (std::size_t k = 0; k < width && ok && agree; ++k) {
        ok = ids[input_slots_[k]] == keys[f * width + k];
      }
      if (ok) {
        ++kept;
      } else {
        tuples_.resize(base);
      }
    }
    tuple_end_.push_back(kept);
  }
}

void FetchOperator::Join(const ColumnarFrontier& frontier,
                         const std::vector<std::uint32_t>& slot_of,
                         ColumnarFrontier* out) {
  const std::size_t arity = literal_->args().size();
  const std::size_t filters = filter_slots_.size();
  sel_rows_.clear();
  sel_tuples_.clear();
  auto begin_of = [&](std::size_t f) {
    return static_cast<std::uint32_t>(f == 0 ? 0 : tuple_end_[f - 1]);
  };
  if (filters == 0) {
    // Every kept tuple of a row's request matches the row: size the
    // selection vectors first, then fill them without a capacity check.
    std::size_t total = 0;
    for (std::size_t r = 0; r < frontier.rows(); ++r) {
      total += tuple_end_[slot_of[r]] - begin_of(slot_of[r]);
    }
    sel_rows_.resize(total);
    sel_tuples_.resize(total);
    std::uint32_t* rows_at = sel_rows_.data();
    std::uint32_t* tuples_at = sel_tuples_.data();
    for (std::size_t r = 0; r < frontier.rows(); ++r) {
      const std::uint32_t f = slot_of[r];
      for (std::uint32_t t = begin_of(f); t < tuple_end_[f]; ++t) {
        *rows_at++ = static_cast<std::uint32_t>(r);
        *tuples_at++ = t;
      }
    }
  } else {
    // Build on (request, output-slot values of the bound variables); the
    // chains keep fetch order, and each tuple's entry id is its index.
    table_.Reset(filters + 1, tuple_end_.empty() ? 0 : tuple_end_.back());
    key_.resize(filters + 1);
    for (std::uint32_t f = 0; f < tuple_end_.size(); ++f) {
      key_[0] = f;
      for (std::uint32_t t = begin_of(f); t < tuple_end_[f]; ++t) {
        for (std::size_t i = 0; i < filters; ++i) {
          key_[1 + i] = tuples_[std::size_t{t} * arity + filter_slots_[i]];
        }
        bool fresh = false;
        table_.Append(table_.FindOrAdd(key_.data(), &fresh));
      }
    }
    for (std::size_t r = 0; r < frontier.rows(); ++r) {
      key_[0] = slot_of[r];
      for (std::size_t i = 0; i < filters; ++i) {
        key_[1 + i] = frontier.Column(plan_[filter_slots_[i]].column)[r];
      }
      const std::uint32_t g = table_.Find(key_.data());
      if (g == IdTable::kNone) continue;
      for (std::uint32_t t = table_.First(g); t != IdTable::kNone;
           t = table_.Next(t)) {
        sel_rows_.push_back(static_cast<std::uint32_t>(r));
        sel_tuples_.push_back(t);
      }
    }
  }

  // One gather per column: the frontier's through the row selection, the
  // new variables' straight out of the matched tuples.
  ColumnarFrontier next = frontier.Gather(sel_rows_);
  const std::size_t n = sel_tuples_.size();
  for (std::size_t s : binder_slots_) {
    std::vector<std::uint32_t>& column =
        next.MutableColumn(next.AddVar(literal_->args()[s].name()));
    column.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = tuples_[std::size_t{sel_tuples_[i]} * arity + s];
    }
  }
  *out = std::move(next);
}

void FetchOperator::AntiJoin(const std::vector<std::uint32_t>& slot_of,
                             ColumnarFrontier* frontier) {
  // Build the distinct (request, tuple) keys, then keep each row whose
  // (request, instantiation) is absent (ChoosePattern guarantees all
  // variables are bound).
  const std::size_t arity = literal_->args().size();
  table_.Reset(arity + 1, tuple_end_.empty() ? 0 : tuple_end_.back());
  key_.resize(arity + 1);
  for (std::uint32_t f = 0; f < tuple_end_.size(); ++f) {
    key_[0] = f;
    for (std::size_t t = f == 0 ? 0 : tuple_end_[f - 1]; t < tuple_end_[f];
         ++t) {
      std::copy_n(tuples_.data() + t * arity, arity, key_.data() + 1);
      bool fresh = false;
      table_.FindOrAdd(key_.data(), &fresh);
    }
  }
  counters_->antijoin_build_tuples += table_.groups();
  sel_rows_.clear();
  for (std::size_t r = 0; r < frontier->rows(); ++r) {
    key_[0] = slot_of[r];
    for (std::size_t j = 0; j < arity; ++j) {
      key_[1 + j] = plan_[j].kind == Slot::kConst
                        ? plan_[j].id
                        : frontier->Column(plan_[j].column)[r];
    }
    if (table_.Find(key_.data()) == IdTable::kNone) {
      sel_rows_.push_back(static_cast<std::uint32_t>(r));
    }
  }
  frontier->Retain(sel_rows_);
}

bool FetchOperator::Absorb(PendingWave&& wave,
                           std::vector<FetchResult> fetched,
                           ColumnarFrontier* out) {
  for (const FetchResult& f : fetched) {
    if (!f.ok()) {
      return Fail("source call for literal " + literal_->ToString() +
                  " failed: " + f.error);
    }
  }
  if (literal_->positive()) {
    // AccessScan / HashJoin / Filter: (row, tuple) pairs in binding order
    // x fetch order — the order the paper's left-to-right reading derives
    // witnesses in. A Filter has no binder slots: surviving rows repeat
    // once per matching fetched tuple, preserving witness multiplicity.
    EncodeTuples(fetched, wave.keys, /*agree=*/true);
    Join(wave.morsel, wave.slot_of, out);
  } else if (!binds_new_) {
    // HashAntiJoin: the request's tuples are compared whole, so a tuple
    // that disagrees with the request still never matches a row.
    EncodeTuples(fetched, wave.keys, /*agree=*/false);
    AntiJoin(wave.slot_of, &wave.morsel);
    *out = std::move(wave.morsel);
  } else {
    // A negated literal with an unbound variable (unreachable while
    // ChoosePattern holds its guarantee) filters nothing: a ground tuple
    // never equals a tuple containing a variable.
    *out = std::move(wave.morsel);
  }
  rows_out_ += out->rows();
  return true;
}

std::vector<Substitution> MaterializeOp::Bindings(
    const TermDictionary& dict) const {
  std::vector<Substitution> out;
  out.reserve(rows_);
  for (const ColumnarFrontier& morsel : morsels_) {
    std::vector<Substitution> decoded = morsel.DecodeAll(dict);
    out.insert(out.end(), std::make_move_iterator(decoded.begin()),
               std::make_move_iterator(decoded.end()));
  }
  return out;
}

bool MaterializeOp::ProjectHead(const std::vector<Term>& head,
                                const TermDictionary& dict,
                                std::set<Tuple>* answers) const {
  if (rows_ == 0) return true;
  // (head position, column) for each head variable. Every morsel of a
  // chain's sink has the same columns.
  std::vector<std::pair<std::size_t, std::size_t>> reads;
  const ColumnarFrontier& shape = morsels_.front();
  for (std::size_t p = 0; p < head.size(); ++p) {
    if (head[p].IsGround()) continue;
    const std::size_t c = shape.ColumnOf(head[p].name());
    if (c == ColumnarFrontier::kNoColumn) return false;
    reads.emplace_back(p, c);
  }
  // Dedup on the projected ids (at most rows_ groups); decode each
  // distinct answer once.
  IdTable seen;
  seen.Reset(reads.size(), rows_);
  std::vector<std::uint32_t> key(reads.size());
  for (const ColumnarFrontier& morsel : morsels_) {
    for (std::size_t r = 0; r < morsel.rows(); ++r) {
      for (std::size_t i = 0; i < reads.size(); ++i) {
        key[i] = morsel.Column(reads[i].second)[r];
      }
      bool fresh = false;
      seen.FindOrAdd(key.data(), &fresh);
    }
  }
  Tuple answer = head;
  for (std::uint32_t g = 0; g < seen.groups(); ++g) {
    const std::uint32_t* ids = seen.Key(g);
    for (std::size_t i = 0; i < reads.size(); ++i) {
      answer[reads[i].first] = dict.DecodeTerm(ids[i]);
    }
    answers->insert(answer);
  }
  return true;
}

}  // namespace ucqn
