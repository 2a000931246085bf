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
  context.live_bindings = static_cast<double>(
      std::max<std::uint64_t>(frontier.TotalWeight(), 1));
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

  // What the output keeps (everything unless projecting), decided once:
  // the frontier's columns are fixed per chain stage.
  for (std::size_t c = 0; c < frontier.width(); ++c) {
    if (!project_ || ReadDownstream(frontier.vars()[c])) {
      live_columns_.push_back(c);
    }
  }
  for (std::size_t slot : binder_slots_) {
    if (!project_ || ReadDownstream(args[slot].name())) {
      live_binders_.push_back(slot);
    }
  }
  // Duplicates on the live values come from what projection dropped:
  // tuples that differ only at a dead binder, rows only at a dead input
  // column. Without either the merges would find nothing (a source
  // answers with a set, and the rows are then distinct too), so they are
  // skipped; a source that repeats a tuple only leaves rows of weight 1
  // that a later merge or the sink's dedup absorbs.
  merge_tuples_ = project_ && live_binders_.size() < binder_slots_.size();
  merge_rows_ = project_ && live_columns_.size() < frontier.width();
  prepared_ = true;
  return true;
}

bool FetchOperator::ReadDownstream(const std::string& var) const {
  auto reads = [&var](const std::vector<Term>& terms) {
    for (const Term& t : terms) {
      if (t.IsVariable() && t.name() == var) return true;
    }
    return false;
  };
  const std::vector<Literal>& body = disjunct_->body();
  for (std::size_t i = index_ + 1; i < body.size(); ++i) {
    if (reads(body[i].args())) return true;
  }
  return reads(disjunct_->head_terms());
}

bool FetchOperator::Stage(ColumnarFrontier&& morsel, PendingWave* wave) {
  if (!prepared_ && !Prepare(morsel)) return false;
  ++counters_->morsels;
  TermDictionary& dict = TermDictionary::Global();
  KernelScratch& s = *scratch_;

  // Dedup the rows on the frontier columns feeding input slots (the only
  // part of a call that varies by row): group ids come out in
  // first-occurrence order — the order every runtime ledger is keyed on.
  const std::size_t width = input_slots_.size();
  const std::size_t rows = morsel.rows();
  s.table.Reset(width, rows);
  s.key.resize(width);
  wave->slot_of.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < width; ++k) {
      s.key[k] = morsel.Column(plan_[input_slots_[k]].column)[r];
    }
    bool fresh = false;
    wave->slot_of[r] = s.table.FindOrAdd(s.key.data(), &fresh);
  }

  // Only the distinct requests decode to Term vectors for the Source API.
  const std::size_t groups = s.table.groups();
  wave->keys.clear();
  wave->requests.clear();
  wave->requests.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::uint32_t* key = s.table.Key(g);
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
                                 bool agree, bool merge) {
  TermDictionary& dict = TermDictionary::Global();
  KernelScratch& s = *scratch_;
  const std::size_t arity = literal_->args().size();
  const std::size_t width = input_slots_.size();
  std::size_t total = 0;
  for (const FetchResult& f : fetched) total += f.tuples.size();
  s.tuples.clear();
  s.tuples.reserve(total * arity);
  s.tuple_end.clear();
  s.tuple_end.reserve(fetched.size());
  // The merge key: (request, filter-slot ids, live binder ids). A kept
  // tuple's group id is its index, since every fresh group is kept.
  const std::size_t filters = filter_slots_.size();
  if (merge) {
    s.table.Reset(1 + filters + live_binders_.size(), total);
    s.key.resize(1 + filters + live_binders_.size());
    s.tuple_weight.clear();
  }
  std::size_t kept = 0;
  for (std::size_t f = 0; f < fetched.size(); ++f) {
    for (const Tuple& tuple : fetched[f].tuples) {
      if (tuple.size() != arity) continue;
      bool ok = true;
      for (const Term& term : tuple) ok = ok && term.IsGround();
      if (!ok) continue;
      const std::size_t base = s.tuples.size();
      for (const Term& term : tuple) {
        s.tuples.push_back(dict.EncodeGround(term));
      }
      const std::uint32_t* ids = s.tuples.data() + base;
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
      if (ok && merge) {
        s.key[0] = static_cast<std::uint32_t>(f);
        for (std::size_t i = 0; i < filters; ++i) {
          s.key[1 + i] = ids[filter_slots_[i]];
        }
        for (std::size_t i = 0; i < live_binders_.size(); ++i) {
          s.key[1 + filters + i] = ids[live_binders_[i]];
        }
        bool fresh = false;
        const std::uint32_t g = s.table.FindOrAdd(s.key.data(), &fresh);
        if (fresh) {
          s.tuple_weight.push_back(1);
        } else {
          s.tuple_weight[g] = SaturatingAdd(s.tuple_weight[g], 1);
          ok = false;
        }
      }
      if (ok) {
        ++kept;
      } else {
        s.tuples.resize(base);
      }
    }
    s.tuple_end.push_back(kept);
  }
}

void FetchOperator::Join(ColumnarFrontier* frontier,
                         const std::vector<std::uint32_t>& slot_of,
                         ColumnarFrontier* out) {
  KernelScratch& s = *scratch_;
  const std::size_t arity = literal_->args().size();
  const std::size_t filters = filter_slots_.size();
  const std::size_t rows = frontier->rows();
  auto begin_of = [&](std::size_t f) {
    return static_cast<std::uint32_t>(f == 0 ? 0 : s.tuple_end[f - 1]);
  };
  s.sel_rows.clear();
  s.sel_tuples.clear();
  s.sel_weights.clear();
  if (merge_rows_) {
    s.row_table.Reset(live_columns_.size() + live_binders_.size(), rows);
    s.row_key.resize(live_columns_.size() + live_binders_.size());
  }
  // One matched (row, tuple) pair into the selection vectors. Projecting:
  // its weight is the row's times the tuple's, and with merge_rows_ a
  // pair whose live output values were seen before only adds its weight
  // to that first occurrence.
  auto emit = [&](std::uint32_t r, std::uint32_t t) {
    if (!project_) {
      s.sel_rows.push_back(r);
      s.sel_tuples.push_back(t);
      return;
    }
    const std::uint64_t w =
        merge_tuples_ ? SaturatingMul(frontier->Weight(r), s.tuple_weight[t])
                      : frontier->Weight(r);
    if (merge_rows_) {
      std::size_t k = 0;
      for (std::size_t c : live_columns_) {
        s.row_key[k++] = frontier->Column(c)[r];
      }
      for (std::size_t slot : live_binders_) {
        s.row_key[k++] = s.tuples[std::size_t{t} * arity + slot];
      }
      bool fresh = false;
      const std::uint32_t g =
          s.row_table.FindOrAdd(s.row_key.data(), &fresh);
      if (!fresh) {
        s.sel_weights[g] = SaturatingAdd(s.sel_weights[g], w);
        return;
      }
    }
    s.sel_rows.push_back(r);
    s.sel_tuples.push_back(t);
    s.sel_weights.push_back(w);
  };

  if (filters == 0) {
    // Every kept tuple of a row's request matches the row.
    if (!merge_rows_) {
      std::size_t total = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        total += s.tuple_end[slot_of[r]] - begin_of(slot_of[r]);
      }
      s.sel_rows.reserve(total);
      s.sel_tuples.reserve(total);
      if (project_) s.sel_weights.reserve(total);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint32_t f = slot_of[r];
      for (std::uint32_t t = begin_of(f); t < s.tuple_end[f]; ++t) {
        emit(static_cast<std::uint32_t>(r), t);
      }
    }
  } else {
    // Build on (request, output-slot values of the bound variables); the
    // chains keep fetch order, and each tuple's entry id is its index.
    s.table.Reset(filters + 1, s.tuple_end.empty() ? 0 : s.tuple_end.back());
    s.key.resize(filters + 1);
    for (std::uint32_t f = 0; f < s.tuple_end.size(); ++f) {
      s.key[0] = f;
      for (std::uint32_t t = begin_of(f); t < s.tuple_end[f]; ++t) {
        for (std::size_t i = 0; i < filters; ++i) {
          s.key[1 + i] = s.tuples[std::size_t{t} * arity + filter_slots_[i]];
        }
        bool fresh = false;
        s.table.Append(s.table.FindOrAdd(s.key.data(), &fresh));
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      s.key[0] = slot_of[r];
      for (std::size_t i = 0; i < filters; ++i) {
        s.key[1 + i] = frontier->Column(plan_[filter_slots_[i]].column)[r];
      }
      const std::uint32_t g = s.table.Find(s.key.data());
      if (g == IdTable::kNone) continue;
      for (std::uint32_t t = s.table.First(g); t != IdTable::kNone;
           t = s.table.Next(t)) {
        emit(static_cast<std::uint32_t>(r), t);
      }
    }
  }

  // One gather per live column: the frontier's through the row
  // selection, the new variables' straight out of the matched tuples.
  // The input weights were consumed into s.sel_weights.
  frontier->SetWeights({});
  ColumnarFrontier next = frontier->Gather(s.sel_rows, live_columns_);
  const std::size_t n = s.sel_tuples.size();
  for (std::size_t slot : live_binders_) {
    std::vector<std::uint32_t>& column =
        next.MutableColumn(next.AddVar(literal_->args()[slot].name()));
    column.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = s.tuples[std::size_t{s.sel_tuples[i]} * arity + slot];
    }
  }
  // Rows that all stand for one witness keep the implicit weights.
  if (std::any_of(s.sel_weights.begin(), s.sel_weights.end(),
                  [](std::uint64_t w) { return w != 1; })) {
    next.SetWeights(s.sel_weights);
  }
  *out = std::move(next);
}

void FetchOperator::AntiJoin(const std::vector<std::uint32_t>& slot_of,
                             ColumnarFrontier* frontier) {
  // Build the distinct (request, tuple) keys, then keep each row whose
  // (request, instantiation) is absent (ChoosePattern guarantees all
  // variables are bound).
  KernelScratch& s = *scratch_;
  const std::size_t arity = literal_->args().size();
  s.table.Reset(arity + 1, s.tuple_end.empty() ? 0 : s.tuple_end.back());
  s.key.resize(arity + 1);
  for (std::uint32_t f = 0; f < s.tuple_end.size(); ++f) {
    s.key[0] = f;
    for (std::size_t t = f == 0 ? 0 : s.tuple_end[f - 1]; t < s.tuple_end[f];
         ++t) {
      std::copy_n(s.tuples.data() + t * arity, arity, s.key.data() + 1);
      bool fresh = false;
      s.table.FindOrAdd(s.key.data(), &fresh);
    }
  }
  counters_->antijoin_build_tuples += s.table.groups();
  s.sel_rows.clear();
  for (std::size_t r = 0; r < frontier->rows(); ++r) {
    s.key[0] = slot_of[r];
    for (std::size_t j = 0; j < arity; ++j) {
      s.key[1 + j] = plan_[j].kind == Slot::kConst
                         ? plan_[j].id
                         : frontier->Column(plan_[j].column)[r];
    }
    if (s.table.Find(s.key.data()) == IdTable::kNone) {
      s.sel_rows.push_back(static_cast<std::uint32_t>(r));
    }
  }
  frontier->Retain(s.sel_rows);
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
    // once per matching fetched tuple, preserving witness multiplicity
    // (projecting: the repeats merge into one row carrying their count).
    EncodeTuples(fetched, wave.keys, /*agree=*/true, merge_tuples_);
    Join(&wave.morsel, wave.slot_of, out);
  } else if (!binds_new_) {
    // HashAntiJoin: the request's tuples are compared whole, so a tuple
    // that disagrees with the request still never matches a row.
    EncodeTuples(fetched, wave.keys, /*agree=*/false, /*merge=*/false);
    AntiJoin(wave.slot_of, &wave.morsel);
    *out = std::move(wave.morsel);
  } else {
    // A negated literal with an unbound variable (unreachable while
    // ChoosePattern holds its guarantee) filters nothing: a ground tuple
    // never equals a tuple containing a variable.
    *out = std::move(wave.morsel);
  }
  rows_out_ = SaturatingAdd(rows_out_, out->TotalWeight());
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
