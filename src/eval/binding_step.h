#ifndef UCQN_EVAL_BINDING_STEP_H_
#define UCQN_EVAL_BINDING_STEP_H_

#include <optional>
#include <string>
#include <vector>

#include "ast/atom.h"
#include "ast/substitution.h"
#include "eval/source.h"
#include "schema/access_pattern.h"

namespace ucqn {

// One literal applied to one binding, the per-binding way of Definition
// 3's left-to-right reading. Shared by the executor's reference loop
// (eval/executor.cc, batch = false) and standing-query maintenance
// (eval/delta.cc), so maintained frontiers extend exactly like a
// from-scratch reference run.

// Extends `binding` so that the literal's arguments equal `tuple`;
// nullopt on mismatch (covers repeated variables and arguments already
// ground) and for a tuple of the wrong arity or carrying a variable.
std::optional<Substitution> UnifyWithTuple(const Literal& literal,
                                           const Tuple& tuple,
                                           const Substitution& binding);

// Calls `literal` through `pattern` for `binding` and appends the
// survivors to `out`: every unifying extension of a positive literal, or
// the binding itself when a negated literal's instantiation is absent
// (all its variables are bound — ChoosePattern guarantees it). False,
// with `*error` set, when the source call fails.
bool ExtendBinding(const Literal& literal, const AccessPattern& pattern,
                   const Substitution& binding, Source* source,
                   std::vector<Substitution>* out, std::string* error);

}  // namespace ucqn

#endif  // UCQN_EVAL_BINDING_STEP_H_
