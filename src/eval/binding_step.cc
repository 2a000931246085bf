#include "eval/binding_step.h"

#include <utility>

namespace ucqn {

namespace {

// The Fetch argument vector for `literal` under `binding`: ground values
// in the pattern's input slots, empty elsewhere. Output slots stay empty
// even when the binding knows their value — a source only accepts its
// declared inputs (Definition 1); the caller filters returned tuples
// against the binding itself.
std::vector<std::optional<Term>> FetchInputs(const Literal& literal,
                                             const AccessPattern& pattern,
                                             const Substitution& binding) {
  std::vector<std::optional<Term>> inputs;
  inputs.reserve(literal.args().size());
  for (std::size_t j = 0; j < literal.args().size(); ++j) {
    Term value = binding.Apply(literal.args()[j]);
    if (pattern.IsInputSlot(j) && value.IsGround()) {
      inputs.emplace_back(std::move(value));
    } else {
      inputs.emplace_back(std::nullopt);
    }
  }
  return inputs;
}

}  // namespace

std::optional<Substitution> UnifyWithTuple(const Literal& literal,
                                           const Tuple& tuple,
                                           const Substitution& binding) {
  Substitution extended = binding;
  const std::vector<Term>& args = literal.args();
  if (args.size() != tuple.size()) return std::nullopt;
  for (std::size_t j = 0; j < args.size(); ++j) {
    // A tuple carrying a variable is not a fact: binding to it would
    // leak a non-ground value into later calls and head terms.
    if (!tuple[j].IsGround()) return std::nullopt;
    Term value = extended.Apply(args[j]);
    if (value.IsGround()) {
      if (value != tuple[j]) return std::nullopt;
    } else {
      if (!extended.Bind(value, tuple[j])) return std::nullopt;
    }
  }
  return extended;
}

bool ExtendBinding(const Literal& literal, const AccessPattern& pattern,
                   const Substitution& binding, Source* source,
                   std::vector<Substitution>* out, std::string* error) {
  FetchResult fetched = source->Fetch(literal.relation(), pattern,
                                      FetchInputs(literal, pattern, binding));
  if (!fetched.ok()) {
    *error = "source call for literal " + literal.ToString() +
             " failed: " + fetched.error;
    return false;
  }
  if (literal.positive()) {
    for (const Tuple& tuple : fetched.tuples) {
      std::optional<Substitution> extended =
          UnifyWithTuple(literal, tuple, binding);
      if (extended.has_value()) out->push_back(std::move(*extended));
    }
    return true;
  }
  const Tuple instantiated = binding.Apply(literal.args());
  for (const Tuple& tuple : fetched.tuples) {
    if (tuple == instantiated) return true;
  }
  out->push_back(binding);
  return true;
}

}  // namespace ucqn
